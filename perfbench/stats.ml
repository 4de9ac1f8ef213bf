(* Clocks and summary statistics shared by every workload. *)

(* Wall time comes from CLOCK_MONOTONIC with nanosecond resolution:
   Unix.gettimeofday ticks in whole microseconds, which quantizes the
   microsecond-scale churn and routing operations this benchmark times
   one by one. CPU time (user + system, summed over every domain of the
   process) comes from Unix.times and is only ever reported as CPU time. *)
let t_start = Monotonic_clock.now ()

let wall () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t_start) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated by the calling domain so far. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" method);
   [a] must be sorted and non-empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let i = min (truncate h) (n - 2) in
    a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

let mean a =
  if a = [||] then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* A timing summary: median, quartiles and the sample count behind them. *)
type summary = { med : float; q1 : float; q3 : float; n : int }

let summary a =
  let s = sorted a in
  if s = [||] then { med = 0.0; q1 = 0.0; q3 = 0.0; n = 0 }
  else
    {
      med = quantile_sorted s 0.5;
      q1 = quantile_sorted s 0.25;
      q3 = quantile_sorted s 0.75;
      n = Array.length s;
    }

(* The tail: the highest percentile with at least ten samples beyond
   it, capped at p99. A workload's sample count is fixed (one best time
   per operation of an instance), so each workload always reads the same
   percentile: p99 for churn and route, lower for the embed workloads,
   which have one sample per instance. *)
let tail_q n = Float.min 0.99 (1.0 -. (10.0 /. float_of_int (max 1 n)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* A fixed-capacity buffer of unboxed floats, allocated before the timed
   loop: recording a sample allocates nothing, and the heap, and with it
   the GC's pacing, does not grow with the length of the run. *)
type samples = { data : float array; mutable len : int }

let capacity = 1 lsl 19
let samples () = { data = Array.make capacity 0.0; len = 0 }

let push s x =
  if s.len < capacity then begin
    s.data.(s.len) <- x;
    s.len <- s.len + 1
  end

let to_array s = Array.sub s.data 0 s.len
