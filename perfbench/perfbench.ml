(* perfbench: one benchmark for the embed, certify, churn and route paths.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--revision R]

   Prints a human-readable report (provenance, the workload's named
   metrics with their sample counts) and, as the last line of standard
   output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones (times scaled to
   the reference speed, see reference.ml), with --trace 1 the per-layer
   ones (and the span journal goes to .bench_out/). METRICS.md
   lists every metric. Exits 1 when a correctness gate failed, 2 on bad
   arguments. *)

(* The workloads. Instances are small and many, so that the seed-to-seed
   spread stays small, and one pass over them is short, so that a run
   times every operation 10 to 200 times (METRICS.md gives the spreads
   that set these sizes). *)
let workloads =
  [
    ( "embed-grid",
      fun ctx ->
        let side = 20 in
        Workloads.embed ctx ~instances:24 ~domains:2 ~make:(fun seed ->
            Gr.relabel (Gen.grid side side) (Gen.random_permutation ~seed (side * side))) );
    ( "embed-maxplanar",
      fun ctx ->
        Workloads.embed ctx ~instances:24 ~domains:1 ~make:(fun seed ->
            Gen.random_maximal_planar ~seed 600) );
    ( "churn-grid",
      fun ctx -> Workloads.churn ctx ~side:40 ~traces:12 ~updates:400 ~check_every:20 );
    ("route-maxplanar", fun ctx -> Workloads.route ctx ~graphs:48 ~n:1000 ~queries:2000);
  ]

(* Every metric the benchmark reports, with its unit; BENCHMARK.json and
   METRICS.md list the same names. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("work_per_op", "count");
    ("heap_peak_words", "words");
  ]

let self_layers =
  [
    "setup"; "proto"; "embedder"; "certify"; "planarity"; "determinism"; "churn";
    "incremental"; "triangulate"; "schnyder"; "route"; "check";
  ]

let per_layer =
  [
    ("network.bfs_s", "s");
    ("network.convergecast_s", "s");
    ("network.messages", "count");
    ("network.bits", "bits");
    ("network.sim_rounds", "count");
    ("network.ns_per_message", "ns");
    ("network.alloc_words_per_message", "words");
    ("network.major_gcs", "count");
    ("runtime.cpu_over_wall", "ratio");
    ("trace.overhead", "ratio");
    ("embedder.recursion_s", "s");
    ("embedder.charged_rounds", "count");
    ("embedder.sim_rounds", "count");
    ("embedder.recursion_calls", "count");
    ("embedder.recursion_depth", "count");
    ("embedder.merges_pairwise", "count");
    ("embedder.merges_star", "count");
    ("embedder.merges_vertex", "count");
    ("embedder.merges_path", "count");
    ("embedder.iface_bits", "bits");
    ("embedder.total_bits", "bits");
    ("embedder.max_edge_bits", "bits");
    ("embedder.alloc_words", "words");
    ("planarity.embed_s", "s");
    ("planarity.ns_per_edge", "ns");
    ("certify.prove_s", "s");
    ("certify.verify_s", "s");
    ("certify.label_words_mean", "words");
    ("certify.verify_messages", "count");
    ("incremental.kernel_edges", "count");
    ("incremental.fast_us", "us");
    ("incremental.reembed_us", "us");
    ("incremental.reject_us", "us");
    ("incremental.linked_us", "us");
    ("incremental.delete_us", "us");
    ("incremental.fast", "count");
    ("incremental.reembedded", "count");
    ("incremental.rejected", "count");
    ("incremental.rescopes", "count");
    ("incremental.face_steps", "count");
    ("incremental.fast_ratio", "ratio");
    ("incremental.reembed_share", "ratio");
    ("incremental.ns_per_kernel_edge", "ns");
    ("triangulate.s", "s");
    ("schnyder.s", "s");
    ("route.make_s", "s");
    ("route.greedy_hops", "count");
    ("route.face_hops", "count");
    ("route.recoveries", "count");
    ("route.face_hop_share", "ratio");
    ("route.ns_per_hop", "ns");
  ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s")) self_layers

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--revision R]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let parse argv =
  let rec go acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = List.assoc_opt k args in
  let int k = Option.bind (get k) int_of_string_opt in
  match (get "workload", int "seed", Option.bind (get "seconds") float_of_string_opt, int "trace") with
  | Some w, Some seed, Some seconds, Some ((0 | 1) as t) when seconds > 0.0 && List.mem_assoc w workloads ->
      (w, seed, seconds, t = 1, Option.value (get "revision") ~default:"unknown")
  | _ -> usage ()

let json_number x = if Float.is_finite x then Printf.sprintf "%.15g" x else "0"

let () =
  let name, seed, seconds, traced, revision = parse Sys.argv in
  let ctx = { Workloads.seed; seconds; traced } in
  let r = (List.assoc name workloads) ctx in
  let failed = min r.failed r.attempted in
  let correct = failed = 0 in
  Printf.printf
    "perfbench %s seed=%d seconds=%g trace=%d cores=%d revision=%s ocaml=%s \
     OCAMLRUNPARAM=%s repetitions=%d\n"
    name seed seconds (Bool.to_int traced) (Domain.recommended_domain_count ())
    revision Sys.ocaml_version
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"<unset>")
    r.reps;
  let row (x : Workloads.row) =
    Printf.printf "  %-24s %14.6g %-6s %s\n" x.name x.value x.unit x.detail
  in
  (* Times at the reference speed (reference.ml); the raw wall times are
     kept in the report. *)
  let scale = Reference.scale () in
  let timed name unit ~per raw detail : Workloads.row =
    let value = if per then raw /. scale else raw *. scale in
    { name; unit; value; detail = Printf.sprintf "%s; raw %.6g" detail raw }
  in
  let lat = Stats.sorted r.lat in
  let tail_q = Stats.tail_q (Array.length lat) in
  let e2e : Workloads.row list =
    [
      timed "setup_s" "s" ~per:false (Stats.median r.setup)
        (Printf.sprintf "median of n=%d best set-up times" (Array.length r.setup));
      timed "ops_per_s" "1/s" ~per:true
        (Stats.ratio 1.0 (Stats.mean r.op_time))
        (Printf.sprintf "1 / mean best wall per operation, %d instances" (Array.length r.op_time));
      timed "op_p50_ms" "ms" ~per:false
        (Stats.quantile_sorted lat 0.5 *. 1e3)
        (Printf.sprintf "median of n=%d best times" (Array.length lat));
      timed "op_tail_ms" "ms" ~per:false
        (Stats.quantile_sorted lat tail_q *. 1e3)
        (Printf.sprintf "p%.4g of n=%d best times" (100.0 *. tail_q) (Array.length lat));
      { name = "work_per_op"; unit = "count"; value = r.work_per_op; detail = "repetition 0" };
      {
        name = "heap_peak_words";
        unit = "words";
        value = float_of_int (Gc.quick_stat ()).Gc.top_heap_words;
        detail = "Gc top_heap_words, whole process";
      };
    ]
  in
  List.iter row
    (e2e @ r.rows
    @ [
        {
          name = "fail_ratio";
          unit = "ratio";
          value = Stats.ratio (float_of_int failed) (float_of_int r.attempted);
          detail = Printf.sprintf "%d failed of %d attempted" failed r.attempted;
        };
        {
          name = "loop_wall_s";
          unit = "s";
          value = r.loop_wall;
          detail = Printf.sprintf "CPU %.6g s over the same %d repetitions" r.loop_cpu r.reps;
        };
        {
          name = "host_scale";
          unit = "ratio";
          value = scale;
          detail =
            Printf.sprintf "reference kernel p10 %.6g s of n=%d, nominal %g s" (Reference.p10 ())
              Reference.times.len Reference.nominal;
        };
      ]);
  let metrics, spec =
    if traced then begin
      (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".bench_out/trace-%s-seed%d.json" name seed in
      Spans.write_json path ~workload:name ~seed;
      Printf.printf "  spans: %d written to %s\n" (List.length (Spans.all ())) path;
      (r.layers, per_layer)
    end
    else (List.map (fun (x : Workloads.row) -> (x.name, x.value)) e2e, end_to_end)
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k spec) then failwith ("perfbench: unlisted metric " ^ k))
    metrics;
  if traced then
    List.iter
      (fun (k, u) ->
        Printf.printf "  %-36s %14.6g %s\n" k
          (Option.value (List.assoc_opt k metrics) ~default:0.0)
          u)
      spec;
  let fields =
    List.map
      (fun (k, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k
          (json_number (Option.value (List.assoc_opt k metrics) ~default:0.0))
          u)
      spec
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 r.attempted) failed (String.concat ", " fields);
  if not correct then exit 1
