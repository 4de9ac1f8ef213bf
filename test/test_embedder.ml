(* Integration and property tests for the distributed embedding pipeline:
   decomposition invariants (Lemmas 4.1-4.3), partition safety
   (Definition 3.1), end-to-end correctness on planar and non-planar
   inputs, baseline agreement, and the round/congestion bounds the paper
   claims. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Partition predicates                                                *)
(* ------------------------------------------------------------------ *)

let test_partition_predicates () =
  let g = Gen.cycle 6 in
  check_bool "connected part" true (Partition.induces_connected g [ 0; 1; 2 ]);
  check_bool "disconnected part" false (Partition.induces_connected g [ 0; 2 ]);
  check_bool "path is trivial" true (Partition.is_trivial g [ 0; 1; 2 ]);
  check_bool "cycle is non-trivial" false
    (Partition.is_trivial g [ 0; 1; 2; 3; 4; 5 ]);
  check_bool "complement connected" true (Partition.complement_connected g [ 0 ]);
  (* Removing two opposite vertices disconnects the cycle. *)
  check_bool "complement disconnected" false
    (Partition.complement_connected g [ 0; 3 ])

let test_safety_definition () =
  let g = Gen.cycle 6 in
  (* Trivial parts are exempt from the complement condition. *)
  check_bool "two trivial arcs safe" true
    (Partition.is_safe g [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]);
  (* A non-trivial part with disconnected complement is unsafe. *)
  let g2 = Gr.union_vertices (Gen.cycle 6) ~more:0 [ (0, 2) ] in
  check_bool "non-trivial triangle part, complement disconnected" false
    (Partition.is_safe g2 [ [ 0; 1; 2; 3 ]; [ 4 ]; [ 5 ] ]
    && not (Partition.is_safe g2 [ [ 0; 1; 2; 3 ] ]));
  (* Overlapping parts are rejected. *)
  check_bool "overlap" false (Partition.is_safe g [ [ 0; 1 ]; [ 1; 2 ] ])

let test_merge_safety_figure6 () =
  (* Figure 6's idea: merging two parts is unsafe when their union's
     complement disconnects. On a cycle, merging two antipodal arcs into a
     non-trivial part that separates the rest is unsafe. *)
  let g = Gen.cycle 8 in
  let parts = [ [ 0; 1 ]; [ 4; 5 ]; [ 2; 3 ]; [ 6; 7 ] ] in
  check_bool "partition safe" true (Partition.is_safe g parts);
  (* Merging adjacent arcs [0;1] and [2;3] gives a path - still trivial,
     safe. *)
  check_bool "adjacent merge safe" true (Partition.merge_is_safe g parts 0 2)

let test_half_edges () =
  let g = Gen.cycle 4 in
  let part_of = [| 0; 0; 1; 1 |] in
  let h0 = List.sort compare (Partition.half_edges g ~part_of 0) in
  Alcotest.(check (list (pair int int))) "half edges" [ (0, 3); (1, 2) ] h0

(* Part construction against the way it used to be derived: a BFS on the
   subgraph induced by the sorted span set (part plus anchors), and the
   structure of the part's own induced subgraph. Parts are BFS balls of
   random planar graphs; anchors are random outside neighbours. *)
let prop_part_matches_induced_reference =
  QCheck.Test.make ~name:"part tree and structure match an induced-BFS reference"
    ~count:80
    QCheck.(pair (int_range 0 100000) (int_range 4 60))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let m = max (n - 1) (min ((3 * n) - 6) (2 * n)) in
      let g = Gen.random_planar ~seed ~n ~m in
      let bt = Traverse.bfs g (Random.State.int rng n) in
      let size = 1 + Random.State.int rng (n - 1) in
      let vertices =
        List.filteri (fun i _ -> i < size) (Array.to_list bt.Traverse.order)
      in
      let in_part v = List.mem v vertices in
      let half =
        List.concat_map
          (fun v ->
            List.filter_map
              (fun w -> if in_part w then None else Some (v, w))
              (Array.to_list (Gr.neighbors g v)))
          vertices
      in
      let anchors =
        List.sort_uniq compare
          (List.filter_map
             (fun (_, w) -> if Random.State.bool rng then Some w else None)
             half)
      in
      let mark = Array.make n (-1) in
      let p =
        Part.create g ~mode:Part.Economy ~classify:Fun.id ~mark ~half ~id:0
          ~vertices ~anchors
      in
      let span = List.sort_uniq compare (anchors @ vertices) in
      let (h, old_of_new, new_of_old) = Gr.induced g span in
      let rt = Traverse.bfs h (new_of_old p.Part.leader) in
      let (sub, _, _) = Gr.induced g vertices in
      Array.for_all (fun x -> x = -1) mark
      && p.Part.leader = List.fold_left max 0 vertices
      && p.Part.depth = Traverse.depth rt
      && List.for_all
           (fun v ->
             Part.parent_fn p v = old_of_new.(rt.Traverse.parent.(new_of_old v)))
           span
      && Hashtbl.length p.Part.tree_parent = List.length span
      && p.Part.trivial = (Gr.m sub = List.length vertices - 1)
      && p.Part.n_bicon = (Bicon.decompose sub).Bicon.n_components)

let test_part_not_connected () =
  let g = Gen.path 6 in
  let mark = Array.make 6 (-1) in
  Alcotest.check_raises "disconnected part"
    (Invalid_argument "Part.create: part 7 is not connected (vertex 0)")
    (fun () ->
      ignore
        (Part.create g ~mode:Part.Faithful ~classify:Fun.id ~mark ~half:[]
           ~id:7 ~vertices:[ 4; 5; 1; 0 ] ~anchors:[ 2 ]));
  check_bool "scratch cleared after the error" true
    (Array.for_all (fun x -> x = -1) mark)

(* ------------------------------------------------------------------ *)
(* Decomposition (Section 4)                                           *)
(* ------------------------------------------------------------------ *)

let prop_decomposition_invariants =
  QCheck.Test.make ~name:"recursion tree satisfies Lemmas 4.1/4.2" ~count:60
    QCheck.(pair (int_range 0 100000) (int_range 2 80))
    (fun (seed, n) ->
      let m = max (n - 1) (min ((3 * n) - 6) (2 * n)) in
      let g = Gen.random_planar ~seed ~n ~m in
      let bt = Traverse.bfs g (n - 1) in
      let tree = Decompose.recursion_tree g bt in
      Decompose.check g bt tree)

let prop_recursion_depth_bound =
  QCheck.Test.make ~name:"recursion depth is O(min(log n, bfs depth))"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 300))
    (fun (seed, n) ->
      let m = max (n - 1) (min ((3 * n) - 6) (2 * n)) in
      let g = Gen.random_planar ~seed ~n ~m in
      let bt = Traverse.bfs g (n - 1) in
      let tree = Decompose.recursion_tree g bt in
      let d = Decompose.depth tree in
      let log15 =
        int_of_float (ceil (log (float_of_int n) /. log 1.5)) + 1
      in
      d <= min log15 (Traverse.depth bt + 1))

let test_decompose_path () =
  (* A path rooted at one end: P0 runs from the root to the centroid. *)
  let g = Gen.path 9 in
  let bt = Traverse.bfs g 0 in
  let tree = Decompose.recursion_tree g bt in
  check_bool "check" true (Decompose.check g bt tree);
  (* The splitter of a rooted path is near the middle. *)
  check_bool "splitter balanced" true (abs (tree.Decompose.splitter - 4) <= 1)

let test_splitter_star () =
  (* In a star rooted at the center, the center itself is the splitter. *)
  let g = Gen.star 9 in
  let bt = Traverse.bfs g 0 in
  let tree = Decompose.recursion_tree g bt in
  check "splitter" 0 tree.Decompose.splitter;
  check "p0 is the center" 1 (List.length tree.Decompose.p0);
  check "eight hanging leaves" 8 (List.length tree.Decompose.hanging)

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

let embed_ok ?mode ?checks g =
  let o = Embedder.run ?mode ?checks g in
  match o.Embedder.rotation with
  | None -> Alcotest.fail "embedder rejected a planar graph"
  | Some r ->
      check_bool "independent Euler verification" true
        (Rotation.is_planar_embedding r);
      o

let test_families_end_to_end () =
  List.iter
    (fun (name, g) ->
      ignore (embed_ok ~checks:true g);
      ignore name)
    [
      ("single", Gr.empty 1);
      ("edge", Gen.path 2);
      ("path", Gen.path 17);
      ("cycle", Gen.cycle 11);
      ("star", Gen.star 9);
      ("tree", Gen.binary_tree 25);
      ("k4", Gen.complete 4);
      ("wheel", Gen.wheel 9);
      ("grid", Gen.grid 5 6);
      ("trigrid", Gen.triangular_grid 4 5);
      ("k4subdiv", Gen.k4_subdivision 5);
      ("maxplanar", Gen.random_maximal_planar ~seed:7 60);
    ]

let test_nonplanar_end_to_end () =
  List.iter
    (fun g ->
      let o = Embedder.run g in
      check_bool "rejected" true (o.Embedder.rotation = None))
    [
      Gen.k5 ();
      Gen.k33 ();
      Gen.petersen ();
      Gen.complete 6;
      Gen.toroidal_grid 4 4;
      Gen.subdivide (Gen.k5 ()) 3;
    ]

let test_disconnected_rejected () =
  let g = Gr.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  (try
     ignore (Embedder.run g);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let prop_random_planar_end_to_end =
  QCheck.Test.make
    ~name:"random planar graphs embed end-to-end (checks on, genus 0)"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 60))
    (fun (seed, n) ->
      let m = min ((3 * n) - 6) (max (n - 1) (2 * n - 4)) in
      let m = max (n - 1) m in
      let g = Gen.random_planar ~seed ~n ~m in
      let o = Embedder.run ~checks:true g in
      match o.Embedder.rotation with
      | None -> false
      | Some r -> Rotation.is_planar_embedding r)

let prop_random_nonplanar_rejected =
  QCheck.Test.make
    ~name:"dense random connected graphs are rejected (m > 3n - 6)"
    ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      let n = 12 in
      let g = Gen.random_connected_graph ~seed ~n ~m:40 in
      (Embedder.run g).Embedder.rotation = None)

let prop_verdict_matches_dmp =
  QCheck.Test.make
    ~name:"distributed verdict always matches the centralized verdict"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 25))
    (fun (seed, n) ->
      let m = min (n * (n - 1) / 2) (max (n - 1) (2 * n)) in
      let g = Gen.random_connected_graph ~seed ~n ~m in
      let ours = (Embedder.run g).Embedder.rotation <> None in
      ours = Dmp.is_planar g)

let prop_economy_same_verdict_and_costs_close =
  QCheck.Test.make
    ~name:"economy mode: same verdict, round counts within 2x of faithful"
    ~count:15
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = Gen.random_planar ~seed ~n:60 ~m:110 in
      let f = Embedder.run ~mode:Part.Faithful g in
      let e = Embedder.run ~mode:Part.Economy g in
      (f.Embedder.rotation <> None)
      = (e.Embedder.rotation <> None)
      && 2 * e.Embedder.report.Embedder.rounds
         >= f.Embedder.report.Embedder.rounds
      && 2 * f.Embedder.report.Embedder.rounds
         >= e.Embedder.report.Embedder.rounds)

let test_report_sanity () =
  let g = Gen.grid 6 6 in
  let o = embed_ok ~checks:true g in
  let r = o.Embedder.report in
  check "n" 36 r.Embedder.n;
  check "m" 60 r.Embedder.m;
  check "leader is max id" 35 r.Embedder.leader;
  check_bool "rounds positive" true (r.Embedder.rounds > 0);
  check_bool "phases recorded" true (List.length r.Embedder.phases >= 3);
  check_bool "safety checks ran" true (r.Embedder.safety_checks > 0);
  check_bool "recursion happened" true (r.Embedder.recursion_calls > 1);
  check_bool "bits shipped" true (r.Embedder.iface_bits_shipped > 0)

let prop_rounds_scale_with_bfs_depth_times_log =
  (* Theorem 1.1's shape: simulated rounds stay within a generous constant
     of D * min(log n, D) + log-sized overheads. The constant here is loose
     on purpose (we guard the asymptotic shape, not the constant). *)
  QCheck.Test.make ~name:"rounds bounded by c * (D+1) * min(log n, D+1)"
    ~count:15
    QCheck.(pair (int_range 0 100000) (int_range 30 200))
    (fun (seed, n) ->
      let g = Gen.random_planar ~seed ~n ~m:(min ((3 * n) - 6) (2 * n)) in
      let o = Embedder.run ~mode:Part.Economy g in
      let d = o.Embedder.report.Embedder.bfs_depth + 1 in
      let logn = int_of_float (ceil (log (float_of_int n) /. log 2.0)) + 1 in
      o.Embedder.report.Embedder.rounds <= 60 * d * min logn (d + 1))

let prop_lower_bound_rounds_at_least_depth =
  (* Footnote 1: coordination across Theta(D) hops is unavoidable; our
     implementation indeed always spends at least the BFS depth. *)
  QCheck.Test.make ~name:"rounds >= BFS depth on K4 subdivisions" ~count:10
    QCheck.(int_range 2 40)
    (fun seglen ->
      let g = Gen.k4_subdivision seglen in
      let o = Embedder.run ~mode:Part.Economy g in
      o.Embedder.report.Embedder.rounds >= o.Embedder.report.Embedder.bfs_depth)

let test_baseline_agrees () =
  List.iter
    (fun g ->
      let b = Baseline.run g in
      match b.Baseline.rotation with
      | None -> Alcotest.fail "baseline rejected planar input"
      | Some r -> check_bool "baseline genus 0" true (Rotation.is_planar_embedding r))
    [ Gen.grid 5 5; Gen.random_maximal_planar ~seed:3 80; Gen.path 40 ];
  List.iter
    (fun g ->
      check_bool "baseline rejects" true ((Baseline.run g).Baseline.rotation = None))
    [ Gen.k5 (); Gen.petersen () ]

let prop_baseline_rounds_linear =
  QCheck.Test.make ~name:"baseline rounds grow linearly in n" ~count:10
    QCheck.(int_range 50 400)
    (fun n ->
      let g = Gen.random_maximal_planar ~seed:5 n in
      let b = Baseline.run g in
      let r = b.Baseline.report.Baseline.rounds in
      (* Gathering 3n-6 edge records of 2 log n bits at 16 log n bits/round
         is about (3/8) n rounds, plus BFS and scatter. *)
      r >= n / 8 && r <= 4 * n + 100)

let test_relabeling_invariance () =
  let g = Gen.random_maximal_planar ~seed:13 40 in
  let perm = Gen.random_permutation ~seed:14 40 in
  let h = Gr.relabel g perm in
  let og = Embedder.run g and oh = Embedder.run h in
  check_bool "same verdict" true
    ((og.Embedder.rotation <> None) = (oh.Embedder.rotation <> None))

(* ------------------------------------------------------------------ *)
(* Golden outputs                                                      *)
(* ------------------------------------------------------------------ *)

(* The embedder's rounds and bits are the reproduced Theorem 1.1 numbers,
   so a change to how parts are built or charged must leave them exactly
   as they are. Each row pins one (instance, mode) run: rounds,
   total_bits, max_edge_bits, iface_bits_shipped, the four merge counters,
   retired_parts, and one digest of the rotation (or its absence) plus
   every per-edge bit tally. On a mismatch the test prints the observed
   row in the table's own syntax. *)
let golden_instances =
  [
    ("grid7x9", fun () -> Gen.grid 7 9);
    ( "grid10x10-relabelled",
      fun () -> Gr.relabel (Gen.grid 10 10) (Gen.random_permutation ~seed:3 100)
    );
    ("maxplanar120", fun () -> Gen.random_maximal_planar ~seed:7 120);
    ("planar90", fun () -> Gen.random_planar ~seed:11 ~n:90 ~m:160);
    ("trigrid6x7", fun () -> Gen.triangular_grid 6 7);
    ("k4subdiv6", fun () -> Gen.k4_subdivision 6);
    ( "outerplanar80",
      fun () -> Gen.random_outerplanar ~seed:5 ~n:80 ~chord_prob:0.4 );
    ("torus6x6", fun () -> Gen.toroidal_grid 6 6);
  ]

let golden_row g mode =
  let o = Embedder.run ~mode g in
  let r = o.Embedder.report in
  let buf = Buffer.create 1024 in
  (match o.Embedder.rotation with
  | None -> Buffer.add_string buf "nonplanar;"
  | Some rot ->
      for v = 0 to Gr.n g - 1 do
        Array.iter
          (fun w -> Buffer.add_string buf (string_of_int w ^ ","))
          (Rotation.rotation rot v);
        Buffer.add_char buf ';'
      done);
  for e = 0 to Gr.m g - 1 do
    Buffer.add_string buf
      (string_of_int (Metrics.edge_bits r.Embedder.metrics e) ^ ",")
  done;
  [|
    r.Embedder.rounds;
    r.Embedder.total_bits;
    r.Embedder.max_edge_bits;
    r.Embedder.iface_bits_shipped;
    r.Embedder.merges_pairwise;
    r.Embedder.merges_star;
    r.Embedder.merges_vertex;
    r.Embedder.merges_path;
    r.Embedder.retired_parts;
  |],
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_table =
  [
    ("grid7x9", "faithful", [| 501; 60518; 1662; 1720; 1; 3; 2; 16; 14 |], "1267e9dc92749edc570dcd0cfc84dfb2");
    ("grid7x9", "economy", [| 484; 44586; 1074; 768; 1; 3; 2; 16; 14 |], "4dc96bdcfc917c0b3320cc1f2557f890");
    ("grid10x10-relabelled", "faithful", [| 566; 118955; 2044; 3446; 0; 13; 16; 24; 15 |], "3950a2bc2ee5e3e562b3cac988bcb2bc");
    ("grid10x10-relabelled", "economy", [| 560; 97179; 1596; 2630; 0; 13; 16; 24; 15 |], "425b0a8b68f7483d7e789511af1ba739");
    ("maxplanar120", "faithful", [| 289; 209587; 2959; 8656; 1; 2; 20; 12; 31 |], "3f33f8ee5e919cf995980df63f5a043e");
    ("maxplanar120", "economy", [| 239; 102819; 1109; 5376; 1; 2; 20; 12; 31 |], "f1a41bbdd43cbc61bb64d3089e0cc7c0");
    ("planar90", "faithful", [| 268; 88742; 1893; 3158; 0; 2; 10; 13; 39 |], "4fad95cab78692947e3bfe76be6c8697");
    ("planar90", "economy", [| 262; 71382; 1221; 2678; 0; 2; 10; 13; 39 |], "82faa6cbf5dc046bd2dd832ff74159e9");
    ("trigrid6x7", "faithful", [| 233; 40784; 1512; 1220; 0; 2; 5; 11; 9 |], "4751293587e59ef802c875909b2c0569");
    ("trigrid6x7", "economy", [| 224; 29766; 952; 786; 0; 2; 5; 11; 9 |], "532978c590b5d93e94754e3ec68b68d9");
    ("k4subdiv6", "faithful", [| 250; 18610; 992; 438; 0; 1; 1; 8; 10 |], "90258db725423c211a31110f96168485");
    ("k4subdiv6", "economy", [| 250; 18610; 992; 438; 0; 1; 1; 8; 10 |], "90258db725423c211a31110f96168485");
    ("outerplanar80", "faithful", [| 474; 64206; 1321; 1968; 0; 5; 14; 18; 20 |], "1c428ebff643c4873e453ab2fb945a9b");
    ("outerplanar80", "economy", [| 474; 64206; 1321; 1968; 0; 5; 14; 18; 20 |], "1c428ebff643c4873e453ab2fb945a9b");
    ("torus6x6", "faithful", [| 127; 13528; 870; 594; 0; 1; 2; 4; 3 |], "968a694d80a3e72654258c613e8aabf4");
    ("torus6x6", "economy", [| 192; 21134; 760; 972; 0; 1; 6; 11; 10 |], "d548d9873599de0aeddd79aa77c539ed");
  ]

let test_golden_outputs () =
  let failures = ref 0 in
  List.iter
    (fun (name, make) ->
      let g = make () in
      List.iter
        (fun (mode, mode_name) ->
          let (fields, digest) = golden_row g mode in
          let show =
            Printf.sprintf "(%S, %S, [| %s |], %S);" name mode_name
              (String.concat "; "
                 (Array.to_list (Array.map string_of_int fields)))
              digest
          in
          match
            List.find_opt
              (fun (n, m, _, _) -> n = name && m = mode_name)
              golden_table
          with
          | Some (_, _, f, d) when f = fields && d = digest -> ()
          | _ ->
              incr failures;
              print_endline show)
        [ (Part.Faithful, "faithful"); (Part.Economy, "economy") ])
    golden_instances;
  check "rows differing from the golden table" 0 !failures

let () =
  Alcotest.run "embedder"
    [
      ( "partition",
        [
          Alcotest.test_case "predicates" `Quick test_partition_predicates;
          Alcotest.test_case "safety (def 3.1)" `Quick test_safety_definition;
          Alcotest.test_case "merge safety (fig 6)" `Quick
            test_merge_safety_figure6;
          Alcotest.test_case "half edges" `Quick test_half_edges;
          QCheck_alcotest.to_alcotest prop_part_matches_induced_reference;
          Alcotest.test_case "part not connected" `Quick test_part_not_connected;
        ] );
      ( "decompose",
        [
          QCheck_alcotest.to_alcotest prop_decomposition_invariants;
          QCheck_alcotest.to_alcotest prop_recursion_depth_bound;
          Alcotest.test_case "path" `Quick test_decompose_path;
          Alcotest.test_case "star splitter" `Quick test_splitter_star;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "planar families" `Quick test_families_end_to_end;
          Alcotest.test_case "nonplanar families" `Quick
            test_nonplanar_end_to_end;
          Alcotest.test_case "disconnected" `Quick test_disconnected_rejected;
          QCheck_alcotest.to_alcotest prop_random_planar_end_to_end;
          QCheck_alcotest.to_alcotest prop_random_nonplanar_rejected;
          QCheck_alcotest.to_alcotest prop_verdict_matches_dmp;
          QCheck_alcotest.to_alcotest prop_economy_same_verdict_and_costs_close;
          Alcotest.test_case "report sanity" `Quick test_report_sanity;
          Alcotest.test_case "relabeling" `Quick test_relabeling_invariance;
          Alcotest.test_case "golden outputs" `Quick test_golden_outputs;
        ] );
      ( "complexity-shape",
        [
          QCheck_alcotest.to_alcotest prop_rounds_scale_with_bfs_depth_times_log;
          QCheck_alcotest.to_alcotest prop_lower_bound_rounds_at_least_depth;
          Alcotest.test_case "baseline agrees" `Quick test_baseline_agrees;
          QCheck_alcotest.to_alcotest prop_baseline_rounds_linear;
        ] );
    ]
