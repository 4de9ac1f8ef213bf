type t = {
  g : Gr.t;
  bandwidth : int;
  metrics : Metrics.t;
  trace : Trace.t option;
  round_base : int;
  mutable clock : int;
  reach : int array;
      (* [charge_aggregate]'s scratch: [-1], or a reached vertex's tree
         distance to the root ([-2] while its own walk is open). *)
}

let create ?bandwidth ?trace ?(round_base = 0) g metrics =
  let bandwidth =
    match bandwidth with Some b -> b | None -> Network.default_bandwidth g
  in
  {
    g;
    bandwidth;
    metrics;
    trace;
    round_base;
    clock = 0;
    reach = Array.make (Gr.n g) (-1);
  }

let bandwidth t = t.bandwidth

let clock t = t.clock
let now t = t.round_base + t.clock
let advance t r = t.clock <- t.clock + r
let ceil_div a b = (a + b - 1) / b

let span_open t name =
  match t.trace with
  | Some tr -> Trace.span_open tr name ~round:(now t)
  | None -> ()

let span_close t ?attrs () =
  match t.trace with
  | Some tr -> Trace.span_close tr ?attrs ~round:(now t) ()
  | None -> ()

let span t name f =
  span_open t name;
  let result =
    try f ()
    with e ->
      span_close t ();
      raise e
  in
  span_close t ();
  result

let note t name value =
  match t.trace with
  | Some tr -> Trace.note tr name value ~round:(now t)
  | None -> ()

let charge_path t path ~bits =
  match path with
  | [] | [ _ ] -> ()
  | first :: rest ->
      let len = List.length rest in
      let prev = ref first in
      List.iter
        (fun v ->
          Metrics.add_dir_bits t.metrics ~u:!prev ~v ~bits;
          prev := v)
        rest;
      if bits > 0 then t.clock <- t.clock + len + ceil_div bits t.bandwidth - 1

let charge_tree t ~root ~parent ~members ~bits_of =
  (* Per-directed-edge (child -> parent) loads: each member's payload
     loads every edge of its walk to the root. *)
  let loads = Hashtbl.create 64 in
  let depth = ref 0 in
  List.iter
    (fun v0 ->
      let bits = bits_of v0 in
      let d = ref 0 in
      let v = ref v0 in
      while !v <> root do
        let p = parent !v in
        if p = !v then invalid_arg "Costmodel: broken tree";
        if not (Gr.mem_edge t.g !v p) then raise Not_found;
        let key = (!v, p) in
        let sofar = try Hashtbl.find loads key with Not_found -> 0 in
        Hashtbl.replace loads key (sofar + bits);
        incr d;
        v := p
      done;
      if !d > !depth then depth := !d)
    members;
  let max_load = Hashtbl.fold (fun _ l acc -> max l acc) loads 0 in
  Hashtbl.iter
    (fun (u, v) l -> Metrics.add_dir_bits t.metrics ~u ~v ~bits:l)
    loads;
  let depth = !depth in
  if max_load > 0 || depth > 0 then
    t.clock <- t.clock + depth + ceil_div max_load t.bandwidth

let charge_aggregate t ~root ~parent ~members ~bits =
  (* Every edge on some member's walk to the root carries [bits] once, so
     a walk stops at the first vertex an earlier walk reached, whose
     distance to the root [reach] already holds: each tree edge is walked,
     and checked, once. [edges] lists the walked (child, parent) edges,
     newest first. *)
  let reach = t.reach in
  let edges = ref [] in
  let depth = ref 0 in
  let walk v0 =
    let v = ref v0 and steps = ref 0 in
    while reach.(!v) = -1 do
      let p = parent !v in
      if p = !v then invalid_arg "Costmodel: broken tree";
      if not (Gr.mem_edge t.g !v p) then raise Not_found;
      reach.(!v) <- -2;
      edges := (!v, p) :: !edges;
      incr steps;
      v := p
    done;
    (* A walk that meets itself circles without reaching the root. *)
    if reach.(!v) = -2 then invalid_arg "Costmodel: broken tree";
    (* This walk's edges head [edges], the one nearest the stop first. *)
    let top = reach.(!v) + !steps in
    let rec settle l d =
      if d <= top then
        match l with
        | (u, _) :: rest ->
            reach.(u) <- d;
            settle rest (d + 1)
        | [] -> assert false
    in
    settle !edges (reach.(!v) + 1);
    if top > !depth then depth := top
  in
  reach.(root) <- 0;
  let reset () =
    reach.(root) <- -1;
    List.iter (fun (u, _) -> reach.(u) <- -1) !edges
  in
  (match List.iter walk members with
  | () -> reset ()
  | exception e ->
      reset ();
      raise e);
  List.iter (fun (u, v) -> Metrics.add_dir_bits t.metrics ~u ~v ~bits) !edges;
  if !depth > 0 || bits > 0 then
    t.clock <- t.clock + !depth + max 0 (ceil_div bits t.bandwidth - 1)

let note_edge_bits t e bits = Metrics.add_edge_bits_by_index t.metrics e bits
let note_dir_bits t ~u ~v bits = Metrics.add_dir_bits t.metrics ~u ~v ~bits

let branch_max t branches =
  let t0 = t.clock in
  let finish =
    List.fold_left
      (fun acc f ->
        t.clock <- t0;
        f ();
        max acc t.clock)
      t0 branches
  in
  t.clock <- finish

let phase t name f =
  let r0 = t.clock in
  span_open t name;
  let result =
    try f ()
    with e ->
      span_close t ();
      raise e
  in
  span_close t ();
  Metrics.phase t.metrics name (t.clock - r0);
  result
