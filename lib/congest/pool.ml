exception Task_failed of { index : int; exn : exn }

let default_jobs () = Domain.recommended_domain_count ()

(* One flag per process: a pool task that opened its own parallel pool
   would multiply domains quadratically, so the second parallel map is
   rejected. Sequential maps (jobs <= 1 or n <= 1) never touch the flag —
   nesting those is harmless. *)
let busy = Atomic.make false

let run_seq n f =
  (* The sequential path keeps the parallel path's error envelope: stop
     at the first failure, report its index. *)
  Array.init n (fun i ->
      try f i with e -> raise (Task_failed { index = i; exn = e }))

let map ?jobs n f =
  if n < 0 then invalid_arg "Pool.map: negative task count";
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  (* Oversubscription guard: a sweep cannot go faster than the hardware,
     and extra domains on a saturated host actively hurt (per-domain
     minor heaps multiply GC work while the cores time-slice). Results
     are jobs-independent by construction, so capping is unobservable
     except in wall time. *)
  let jobs = min jobs (default_jobs ()) in
  let jobs = min jobs n in
  if jobs <= 1 then run_seq n f
  else if not (Atomic.compare_and_set busy false true) then
    raise
      (Task_failed
         {
           index = 0;
           exn =
             Invalid_argument
               "Pool.map: nested parallel map — pool tasks must not open \
                their own pool";
         })
  else begin
    let chunk = (n + jobs - 1) / jobs in
    let results = Array.make n None in
    let filled = Array.make n false in
    let errors : (int * exn) option array = Array.make jobs None in
    let chunk_of j =
      let lo = j * chunk in
      let hi = min n (lo + chunk) in
      try
        for i = lo to hi - 1 do
          results.(i) <- Some (f i);
          filled.(i) <- true
        done
      with e ->
        (* The raise struck at the first unfilled slot of this chunk. *)
        let i = ref lo in
        while !i < hi && filled.(!i) do
          incr i
        done;
        errors.(j) <- Some (!i, e)
    in
    let workers =
      Array.init (jobs - 1) (fun j -> Domain.spawn (fun () -> chunk_of (j + 1)))
    in
    chunk_of 0;
    Array.iter Domain.join workers;
    Atomic.set busy false;
    (* Chunks are contiguous ascending, so the lowest erring chunk holds
       the lowest failing task index — the failure a sequential sweep
       would have reported. *)
    let first_err = ref None in
    for j = jobs - 1 downto 0 do
      match errors.(j) with Some _ as e -> first_err := e | None -> ()
    done;
    (match !first_err with
    | Some (index, exn) -> raise (Task_failed { index; exn })
    | None -> ());
    Array.map (function Some x -> x | None -> assert false) results
  end

(* ------------------------------------------------------------------ *)
(* Persistent pool with a shared task queue (work stealing)            *)
(* ------------------------------------------------------------------ *)

(* The round engine calls into the pool thousands of times per run, so a
   dispatch must cost a few atomic operations when the workers are hot.
   Workers first spin on the generation counter (cpu_relax), and only
   park on the condition variable after the spin budget runs out — a
   run on an oversubscribed or single-core machine degrades to ordinary
   blocking instead of livelocking.

   Tasks are claimed from one shared Atomic counter (fetch-and-add):
   whichever domain is free takes the next index, so an imbalanced task
   list cannot serialize on the slowest statically-assigned worker.
   Determinism is the caller's job and is easy to keep: tasks write to
   slot-indexed buffers, and the caller merges them in index order after
   [run] returns — which domain executed a task is then unobservable.

   Publication safety: [job]/[tasks] are plain fields written by the
   coordinator strictly before the Atomic bump of [gen]; a worker reads
   them only after observing the new generation, which establishes the
   happens-before edge. No worker can still be reading the previous
   run's fields when the coordinator writes, because [run] returns only
   after every party (workers and caller) has arrived for the current
   generation. *)
(* The three hot atomics live on distinct cache lines: [gen] is spun on
   by every parked-out worker, [next] is fetch-and-added once per task
   claim, and [arrived] once per party per dispatch. An [Atomic.t] is a
   two-word block, so allocating them back to back (as a record literal
   does) lands all three on one line and every claim invalidates every
   spinner. The pad arrays are allocated between the atomics and kept
   reachable from the record — the standard separation idiom until
   [Atomic.make_contended] (OCaml >= 5.2) is available here. *)
type t = {
  parties : int;
  mutable job : int -> unit;
  mutable tasks : int;
  gen : int Atomic.t;
  _pad_gen : int array;
  next : int Atomic.t;
  _pad_next : int array;
  arrived : int Atomic.t;
  _pad_arrived : int array;
  stop : bool Atomic.t;
  mutable err : (int * exn) option;  (* lowest failing index; under [em] *)
  em : Mutex.t;
  m : Mutex.t;
  cv : Condition.t;  (* wakes parked workers on a generation bump *)
  dm : Mutex.t;
  dcv : Condition.t;  (* wakes the coordinator when all parties arrived *)
  spin : int;
  mutable workers : unit Domain.t array;
  mutable live : bool;
}

let nop (_ : int) = ()

let record_err t i e =
  Mutex.lock t.em;
  (match t.err with
  | Some (i', _) when i' <= i -> ()
  | _ -> t.err <- Some (i, e));
  Mutex.unlock t.em

let claim_loop t f total =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add t.next 1 in
    if i >= total then continue := false
    else try f i with e -> record_err t i e
  done

let arrive t =
  if 1 + Atomic.fetch_and_add t.arrived 1 = t.parties then begin
    Mutex.lock t.dm;
    Condition.broadcast t.dcv;
    Mutex.unlock t.dm
  end

let worker_loop t =
  (* The baseline generation is the one the pool was created with, not a
     startup-time read: the coordinator may publish the first job before
     this domain gets scheduled, and reading [gen] here would silently
     skip that job — a missed generation deadlocks the arrival barrier. *)
  let last = ref 0 in
  let running = ref true in
  while !running do
    (* Spin, then park: the generation bump is the release signal. *)
    let spins = ref t.spin in
    while Atomic.get t.gen = !last && !spins > 0 do
      Domain.cpu_relax ();
      decr spins
    done;
    if Atomic.get t.gen = !last then begin
      Mutex.lock t.m;
      while Atomic.get t.gen = !last do
        Condition.wait t.cv t.m
      done;
      Mutex.unlock t.m
    end;
    last := Atomic.get t.gen;
    if Atomic.get t.stop then running := false
    else begin
      claim_loop t t.job t.tasks;
      arrive t
    end
  done

let create ?domains () =
  let parties =
    match domains with
    | None -> default_jobs ()
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Pool.create: domains must be at least 1"
  in
  (* Sequence the allocations so each pad array physically separates
     the atomic blocks it sits between (see the type's comment). *)
  let gen = Atomic.make 0 in
  let pad_gen = Array.make 15 0 in
  let next = Atomic.make 0 in
  let pad_next = Array.make 15 0 in
  let arrived = Atomic.make 0 in
  let pad_arrived = Array.make 15 0 in
  let t =
    {
      parties;
      job = nop;
      tasks = 0;
      gen;
      _pad_gen = pad_gen;
      next;
      _pad_next = pad_next;
      arrived;
      _pad_arrived = pad_arrived;
      stop = Atomic.make false;
      err = None;
      em = Mutex.create ();
      m = Mutex.create ();
      cv = Condition.create ();
      dm = Mutex.create ();
      dcv = Condition.create ();
      (* Spinning only pays when the workers can actually run in
         parallel with the coordinator; on a single-core host park
         immediately. *)
      spin = (if default_jobs () > 1 then 2000 else 1);
      workers = [||];
      live = true;
    }
  in
  t.workers <-
    Array.init (parties - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.parties

let publish t =
  Mutex.lock t.m;
  Atomic.incr t.gen;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

(* A lone party has no one to publish to: run the tasks inline, in index
   order, with the same envelope — every task runs, the lowest failing
   index is re-raised — and no atomics, mutexes or generation bump. *)
let run_inline ~tasks f =
  let err = ref None in
  for i = 0 to tasks - 1 do
    try f i
    with e -> if Option.is_none !err then err := Some (i, e)
  done;
  match !err with
  | Some (index, exn) -> raise (Task_failed { index; exn })
  | None -> ()

let run t ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: negative task count";
  if not t.live then invalid_arg "Pool.run: pool is shut down";
  if t.parties = 1 then run_inline ~tasks f
  else if tasks > 0 then begin
    t.job <- f;
    t.tasks <- tasks;
    t.err <- None;
    Atomic.set t.next 0;
    Atomic.set t.arrived 0;
    publish t;
    claim_loop t f tasks;
    arrive t;
    (* Completion = every party arrived: all tasks were claimed and the
       claiming domains have finished running them. *)
    let spins = ref t.spin in
    while Atomic.get t.arrived < t.parties && !spins > 0 do
      Domain.cpu_relax ();
      decr spins
    done;
    if Atomic.get t.arrived < t.parties then begin
      Mutex.lock t.dm;
      while Atomic.get t.arrived < t.parties do
        Condition.wait t.dcv t.dm
      done;
      Mutex.unlock t.dm
    end;
    match t.err with
    | Some (index, exn) -> raise (Task_failed { index; exn })
    | None -> ()
  end

let shutdown t =
  if t.live then begin
    t.live <- false;
    Atomic.set t.stop true;
    publish t;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end
