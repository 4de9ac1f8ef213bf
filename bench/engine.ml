(* Microbenchmark: the flat-array round engine (Network.exec) on its
   own — wall time and allocated words of a bare run per protocol shape,
   plus an identity gate that costs nothing to keep honest: observation
   must be free of behavior, so a run observed through a metrics sink
   must end in the same states after the same rounds as a bare run.

   The engine-vs-legacy comparison lives in test/test_engine_diff.ml,
   which keeps the pre-redesign hashtable engine as its differential
   oracle. Wall time is Unix.gettimeofday (real elapsed time, as in the
   other benches). Results go to BENCH_engine.json and stdout.

     dune exec bench/engine.exe              # full sweep, grids to n=100k
     dune exec bench/engine.exe -- --quick   # CI smoke: small cases only,
                                             # exit 1 on any identity gate
     dune exec bench/engine.exe -- --out F   # write the JSON to F *)

let to_all g v msg =
  Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> (w, msg) :: acc)

(* Dense activity: max-id flood, every node re-announces on improvement. *)
let flood =
  {
    Network.init = (fun g v -> (v, to_all g v v));
    round =
      (fun g v best inbox ->
        let best' = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
        if best' = best then (best, []) else (best', to_all g v best'));
    msg_bits = (fun _ -> 12);
  }

(* Wavefront activity: single-source reachability, every node announces
   exactly once, so most rounds touch only the frontier. *)
let bfs_wave =
  {
    Network.init =
      (fun g v -> if v = 0 then (true, to_all g v 1) else (false, []));
    round =
      (fun g v reached inbox ->
        if reached || inbox = [] then (reached, [])
        else (true, to_all g v 1));
    msg_bits = (fun _ -> 8);
  }

(* Point activity: one token circling a ring — one active node and one
   message per round, the worst case for an O(n)-per-round loop. *)
let token_ring n ttl =
  {
    Network.init = (fun _g v -> ((), if v = 0 then [ (1, ttl) ] else []));
    round =
      (fun _g v st inbox ->
        match inbox with
        | [ (src, t) ] when t > 0 ->
            let w =
              if (v + 1) mod n = src then (v + n - 1) mod n else (v + 1) mod n
            in
            (st, [ (w, t - 1) ])
        | _ -> (st, []));
    msg_bits = (fun _ -> 16);
  }

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let words_now () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let measure f =
  Gc.full_major ();
  let w0 = words_now () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  let w1 = words_now () in
  (x, t1 -. t0, w1 -. w0)

type case = {
  name : string;
  n : int;
  m : int;
  rounds : int;
  wall : float;
  words : float;
  identical : bool;
}

(* A case is split into two closures so the driver can schedule them
   differently: the identity pass (bare run + observed run, results
   compared — CPU-bound and independent across cases, so it fans out
   over the Pool when --jobs asks) and the timing pass (a bare run whose
   wall-clock number is the product, so it always runs serially on an
   otherwise idle process). The closures hide the per-case state type,
   which lets heterogeneous protocols share one case list. *)
type prepared = {
  p_name : string;
  p_n : int;
  p_m : int;
  p_identity : unit -> bool * int;  (* identical?, rounds *)
  p_timing : unit -> float * float * bool;
}

let config = Network.Config.make ~bandwidth:4096 ()

let prep name g proto =
  let identity () =
    let bare = Network.exec ~config g proto in
    let m = Metrics.create g in
    let observed =
      Network.exec
        ~config:(Network.Config.with_observe (Observe.of_metrics m) config)
        g proto
    in
    ( bare.Network.states = observed.Network.states
      && bare.Network.rounds = observed.Network.rounds
      && Metrics.rounds m = bare.Network.rounds,
      bare.Network.rounds )
  in
  let timing () =
    let (r, wall, words) = measure (fun () -> Network.exec ~config g proto) in
    (wall, words, Array.length r.Network.states = Gr.n g)
  in
  {
    p_name = name;
    p_n = Gr.n g;
    p_m = Gr.m g;
    p_identity = identity;
    p_timing = timing;
  }

let run_cases ~jobs prepped =
  let arr = Array.of_list prepped in
  let identities =
    Pool.map ~jobs (Array.length arr) (fun i -> arr.(i).p_identity ())
  in
  List.mapi
    (fun i p ->
      let (id_ok, rounds) = identities.(i) in
      let (wall, words, sized_ok) = p.p_timing () in
      let c =
        {
          name = p.p_name;
          n = p.p_n;
          m = p.p_m;
          rounds;
          wall;
          words;
          identical = id_ok && sized_ok;
        }
      in
      Printf.printf "%-28s n=%-7d rounds=%-5d  %8.3fs %12.0fw  %s\n%!" c.name
        c.n c.rounds c.wall c.words
        (if c.identical then "identical" else "MISMATCH");
      c)
    prepped

let json_of_cases cases =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"congest-engine-exec\",\n";
  Buffer.add_string b "  \"unit\": { \"wall\": \"seconds\", \"alloc\": \"words\" },\n";
  Buffer.add_string b "  \"cases\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"n\": %d, \"m\": %d, \"rounds\": %d,\n\
           \      \"wall_s\": %.6f, \"alloc_words\": %.0f, \"identical\": %b \
            }%s\n"
           c.name c.n c.m c.rounds c.wall c.words c.identical
           (if i = List.length cases - 1 then "" else ",")))
    cases;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let quick = ref false in
  let out = ref "BENCH_engine.json" in
  let jobs = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | "--jobs" :: k :: rest -> (
        match int_of_string_opt k with
        | Some k when k >= 1 ->
            jobs := k;
            parse rest
        | _ ->
            Printf.eprintf "engine: --jobs expects a positive integer\n";
            exit 2)
    | arg :: _ ->
        Printf.eprintf "engine: unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let prepped =
    if !quick then
      [
        prep "grid-100x100/flood" (Gen.grid 100 100) flood;
        prep "grid-100x100/bfs-wave" (Gen.grid 100 100) bfs_wave;
        (let n = 10_000 in
         prep "cycle-10k/token-ring" (Gen.cycle n) (token_ring n 2_000));
      ]
    else
      [
        prep "grid-100x100/flood" (Gen.grid 100 100) flood;
        prep "grid-100x100/bfs-wave" (Gen.grid 100 100) bfs_wave;
        prep "grid-250x400/flood" (Gen.grid 250 400) flood;
        prep "grid-250x400/bfs-wave" (Gen.grid 250 400) bfs_wave;
        prep "cycle-10k/flood" (Gen.cycle 10_000) flood;
        (let n = 100_000 in
         prep "cycle-100k/token-ring" (Gen.cycle n) (token_ring n 5_000));
      ]
  in
  let cases = run_cases ~jobs:!jobs prepped in
  let oc = open_out !out in
  output_string oc (json_of_cases cases);
  close_out oc;
  Printf.printf "\nwrote %s\n" !out;
  let broken = List.filter (fun c -> not c.identical) cases in
  if broken <> [] then begin
    List.iter
      (fun c -> Printf.eprintf "engine: identity gate failed on %s\n" c.name)
      broken;
    exit 1
  end
