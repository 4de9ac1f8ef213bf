(* Differential testing of the two planarity kernels.

   The left-right kernel (Lr) is the production path; DMP stays in the
   tree as the independent oracle. Every group here cross-checks them:

   - fixed families: LR and DMP agree on every named Gen family, and
     every LR-accepted rotation passes the genus-0 Euler check;
   - qcheck sweeps: the same agreement on every random Gen family, plus
     instances perturbed by randomly added edges (which drives maximal
     planar inputs non-planar, exercising the Reject paths);
   - masked variants: [Lr.is_planar_edges] over a random exclusion mask
     agrees with DMP run on the graph built from the surviving edges
     (the exact access pattern of [Kuratowski.witness]);
   - Kuratowski witness at scale: one crossing edge added to a maximal
     planar graph on 2000 vertices yields a witness that is non-planar,
     edge-critical, and classified as a K5 or K3,3 subdivision;
   - the typed [Dmp.No_progress] diagnostic round-trips its payload. *)

let check_bool = Alcotest.(check bool)

let euler_ok r = Rotation.is_planar_embedding r

(* Both kernels on one graph: verdicts agree; an accepted rotation is
   Euler-valid. Returns the shared verdict. *)
let agree name g =
  let lr = Lr.embed g in
  let dmp = Dmp.embed g in
  match (lr, dmp) with
  | Lr.Planar r, Dmp.Planar _ ->
      check_bool (name ^ ": LR rotation is genus 0") true (euler_ok r);
      true
  | Lr.Nonplanar, Dmp.Nonplanar -> false
  | Lr.Planar _, Dmp.Nonplanar ->
      Alcotest.failf "%s: LR says planar, DMP says non-planar" name
  | Lr.Nonplanar, Dmp.Planar _ ->
      Alcotest.failf "%s: LR says non-planar, DMP says planar" name

(* ------------------------------------------------------------------ *)
(* Fixed families                                                      *)
(* ------------------------------------------------------------------ *)

let fixed_families =
  [
    ("empty 0", Gr.of_edges ~n:0 []);
    ("isolated 5", Gr.of_edges ~n:5 []);
    ("single edge", Gr.of_edges ~n:2 [ (0, 1) ]);
    ("path 17", Gen.path 17);
    ("cycle 24", Gen.cycle 24);
    ("star 12", Gen.star 12);
    ("complete 4", Gen.complete 4);
    ("complete 5", Gen.complete 5);
    ("complete 6", Gen.complete 6);
    ("K2,3", Gen.complete_bipartite 2 3);
    ("K3,3", Gen.k33 ());
    ("K3,4", Gen.complete_bipartite 3 4);
    ("K5", Gen.k5 ());
    ("petersen", Gen.petersen ());
    ("wheel 9", Gen.wheel 9);
    ("ladder 6", Gen.ladder 6);
    ("fan 11", Gen.fan 11);
    ("grid 4x5", Gen.grid 4 5);
    ("triangular grid 3x4", Gen.triangular_grid 3 4);
    ("toroidal grid 3x3", Gen.toroidal_grid 3 3);
    ("toroidal grid 4x5", Gen.toroidal_grid 4 5);
    ("binary tree 15", Gen.binary_tree 15);
    ("K4 subdivision 3", Gen.k4_subdivision 3);
    ("subdivided wheel", Gen.subdivide (Gen.wheel 6) 2);
    ("subdivided K5", Gen.subdivide (Gen.k5 ()) 2);
    ("subdivided K3,3", Gen.subdivide (Gen.k33 ()) 3);
    ("two triangles", Gr.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]);
  ]

let test_fixed_families () =
  List.iter (fun (name, g) -> ignore (agree name g)) fixed_families

(* ------------------------------------------------------------------ *)
(* qcheck sweeps                                                       *)
(* ------------------------------------------------------------------ *)

let seed_prop name build =
  QCheck.Test.make ~count:20 ~name
    QCheck.(int_range 0 100_000)
    (fun seed ->
      ignore (agree (Printf.sprintf "%s seed=%d" name seed) (build seed));
      true)

(* Add [k] pseudo-random non-edges to [g]; on a maximal planar input any
   single addition already crosses the 3n-6 edge bound. *)
let add_random_edges ~seed k g =
  let n = Gr.n g in
  let st = ref (seed * 2654435761 + 12345) in
  let next bound =
    st := (!st * 1103515245 + 12345) land 0x3FFFFFFF;
    !st mod bound
  in
  let added = ref [] and tries = ref 0 and got = ref 0 in
  while !got < k && !tries < 200 do
    incr tries;
    let u = next n and v = next n in
    if u <> v && not (Gr.mem_edge g u v)
       && not (List.mem (Gr.normalize_edge u v) !added)
    then begin
      added := Gr.normalize_edge u v :: !added;
      incr got
    end
  done;
  Gr.union_vertices g ~more:0 !added

let random_family_props =
  [
    seed_prop "random tree" (fun seed -> Gen.random_tree ~seed 24);
    seed_prop "random maximal planar" (fun seed ->
        Gen.random_maximal_planar ~seed 40);
    seed_prop "random planar" (fun seed -> Gen.random_planar ~seed ~n:28 ~m:50);
    seed_prop "random outerplanar" (fun seed ->
        Gen.random_outerplanar ~seed ~n:24 ~chord_prob:0.5);
    seed_prop "random connected graph" (fun seed ->
        Gen.random_connected_graph ~seed ~n:18 ~m:30);
    seed_prop "maximal planar + 1 edge" (fun seed ->
        add_random_edges ~seed 1 (Gen.random_maximal_planar ~seed 30));
    seed_prop "maximal planar + 3 edges" (fun seed ->
        add_random_edges ~seed 3 (Gen.random_maximal_planar ~seed 30));
    seed_prop "outerplanar + random edges" (fun seed ->
        add_random_edges ~seed 4
          (Gen.random_outerplanar ~seed ~n:22 ~chord_prob:0.3));
    seed_prop "grid + random edges" (fun seed ->
        add_random_edges ~seed 2 (Gen.grid 5 6));
  ]

(* Masked-subset agreement: the exact access pattern of
   [Kuratowski.witness] — one shared edge array, some entries switched
   off — versus DMP on a graph rebuilt from the survivors. *)
let masked_prop =
  QCheck.Test.make ~count:40 ~name:"masked subsets agree with DMP"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Gen.random_connected_graph ~seed ~n:16 ~m:30 in
      let edges = Array.of_list (Gr.edges g) in
      let m = Array.length edges in
      let st = ref (seed + 17) in
      let mask =
        Array.init m (fun _ ->
            st := (!st * 1103515245 + 12345) land 0x3FFFFFFF;
            !st land 7 <> 0 (* keep ~7/8 of the edges *))
      in
      let survivors = ref [] in
      for i = m - 1 downto 0 do
        if mask.(i) then survivors := edges.(i) :: !survivors
      done;
      let sub = Gr.of_edges ~n:(Gr.n g) !survivors in
      Lr.is_planar_edges ~n:(Gr.n g) edges ~mask = Dmp.is_planar sub)

(* ------------------------------------------------------------------ *)
(* Kuratowski witness at scale                                         *)
(* ------------------------------------------------------------------ *)

let test_witness_maxplanar_2000 () =
  let n = 2000 in
  let g0 = Gen.random_maximal_planar ~seed:5 n in
  (* Maximal planar: m = 3n - 6, so any added edge forces non-planarity.
     Pick the first non-neighbor of vertex 0 as the crossing edge. *)
  let v = ref 2 in
  while Gr.mem_edge g0 0 !v do
    incr v
  done;
  let g = Gr.union_vertices g0 ~more:0 [ (0, !v) ] in
  check_bool "perturbed graph is non-planar" false (Lr.is_planar g);
  match Kuratowski.witness g with
  | None -> Alcotest.fail "no witness extracted from a non-planar graph"
  | Some edges ->
      let w = Gr.of_edges ~n edges in
      check_bool "witness is non-planar" false (Lr.is_planar w);
      check_bool "witness is non-planar (DMP agrees)" false (Dmp.is_planar w);
      (* Edge-criticality: deleting any single witness edge restores
         planarity — the definition of an edge-minimal witness. *)
      let arr = Array.of_list edges in
      let mask = Array.make (Array.length arr) true in
      Array.iteri
        (fun i _ ->
          mask.(i) <- false;
          check_bool
            (Printf.sprintf "witness minus edge %d is planar" i)
            true
            (Lr.is_planar_edges ~n arr ~mask);
          mask.(i) <- true)
        arr;
      (match Kuratowski.classify g edges with
      | Some _ -> ()
      | None -> Alcotest.fail "witness did not classify as K5 or K3,3")

(* ------------------------------------------------------------------ *)
(* Typed no-progress diagnostic                                        *)
(* ------------------------------------------------------------------ *)

let test_no_progress_payload () =
  (* The exception never fires on real inputs (it flags a broken internal
     invariant); certify that the payload round-trips so a future trigger
     reports usable counts instead of a bare string. *)
  match
    raise
      (Dmp.No_progress
         { fragments = 3; faces = 7; embedded_edges = 11; total_edges = 13 })
  with
  | exception Dmp.No_progress { fragments; faces; embedded_edges; total_edges }
    ->
      Alcotest.(check (list int))
        "payload fields" [ 3; 7; 11; 13 ]
        [ fragments; faces; embedded_edges; total_edges ]
  | _ -> assert false

let () =
  let qcheck =
    List.map QCheck_alcotest.to_alcotest (random_family_props @ [ masked_prop ])
  in
  Alcotest.run "kernels"
    [
      ( "lr vs dmp",
        Alcotest.test_case "fixed families" `Quick test_fixed_families :: qcheck
      );
      ( "kuratowski",
        [
          Alcotest.test_case "witness maxplanar n=2000 + crossing edge" `Slow
            test_witness_maxplanar_2000;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "No_progress payload" `Quick
            test_no_progress_payload;
        ] );
    ]
