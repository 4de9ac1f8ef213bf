(* The host's speed, measured with a fixed kernel of the benchmark's own.

   The machine the benchmark was tuned on is a shared 2-vCPU VM whose
   speed drifts by 10-25% over minutes as neighbours come and go: the
   best time of one operation moved that much between runs of the same
   seed, for compute-bound code and for CPU time as well as wall time,
   with no steal time recorded. Best-of timing filters out bursts of a
   fraction of a second but not a slow phase that covers a whole run.

   So the measuring phase also times a reference kernel, every
   [interval] seconds between repetitions, and the end-to-end times are
   reported at the reference speed: scaled by [nominal /. p10], where
   [p10] is the kernel's 10th-percentile time in this run and [nominal]
   a constant (its p10 in a quiet phase of the tuning host). The kernel
   uses only the OCaml standard library, so no change to the library
   under test changes its code. It does what the library's hot paths
   do: a breadth-first search over a fixed random graph held in lists,
   with a hash table for distances and a queue, and a list sort. A
   synthetic pointer-chase and arithmetic loop did not follow the drift;
   this kernel's p10 did (on six runs of one seed spanning a 23% drift,
   the ratio of the operations' median to it stayed within 4% of its
   mean). The raw times are printed in the report next to the scaled
   ones. *)

let nominal = 4.2e-3
let interval = 0.2

(* A fixed random graph: 8000 vertices, each joined to two random
   others, as adjacency lists. *)
let graph =
  let n = 8_000 in
  let st = Random.State.make [| 7 |] in
  let adj = Array.make n [] in
  for v = 0 to n - 1 do
    for _ = 1 to 2 do
      let u = Random.State.int st n in
      adj.(v) <- u :: adj.(v);
      adj.(u) <- v :: adj.(u)
    done
  done;
  adj

let kernel () =
  let dist = Hashtbl.create 64 in
  let q = Queue.create () in
  Queue.push 0 q;
  Hashtbl.replace dist 0 0;
  let sum = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = Hashtbl.find dist v in
    sum := !sum + d;
    List.iter
      (fun u ->
        if not (Hashtbl.mem dist u) then begin
          Hashtbl.replace dist u (d + 1);
          Queue.push u q
        end)
      graph.(v)
  done;
  let l = List.sort compare (List.init 4000 (fun i -> (i * 7919) land 4095)) in
  !sum + List.length l

let times = Stats.samples ()
let last = ref neg_infinity

(* Time the kernel if [interval] has gone by since it last ran. Call
   between repetitions, outside any timed operation. *)
let tick () =
  let t0 = Stats.wall () in
  if t0 -. !last >= interval then begin
    ignore (Sys.opaque_identity (kernel ()));
    let t1 = Stats.wall () in
    Stats.push times (t1 -. t0);
    last := t1
  end

let p10 () = Stats.quantile (Stats.to_array times) 0.1

(* The factor that turns this run's wall times into times at the
   reference speed; 1 when the kernel never ran (the traced run). *)
let scale () = if times.len = 0 then 1.0 else nominal /. p10 ()
