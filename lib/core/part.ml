type mode = Faithful | Economy

type t = {
  id : int;
  vertices : int list;
  leader : int;
  tree_parent : (int, int) Hashtbl.t;
  depth : int;
  anchors : int list;
  trivial : bool;
  n_bicon : int;
  half : (int * int) list;
  emb : Constrained.t option;
  iface_bits : int;
}

exception Nonplanar_detected of string

let word g =
  let n = max 2 (Gr.n g) in
  let rec bits_needed k acc = if k <= 1 then acc else bits_needed (k / 2) (acc + 1) in
  bits_needed (n - 1) 1

(* Number of maximal runs in a cyclic sequence after classifying: the
   number of class transitions around the cycle, at least one. *)
let cyclic_runs classify = function
  | [] -> 0
  | [ _ ] -> 1
  | l ->
      let arr = Array.of_list (List.map classify l) in
      let k = Array.length arr in
      let transitions = ref 0 in
      for i = 0 to k - 1 do
        if arr.(i) <> arr.((i + 1) mod k) then incr transitions
      done;
      max 1 !transitions

(* [create]'s body; [create] restores [mark] however it ends. *)
let build g ~mode ~classify ~mark ~half ~id ~vertices ~anchors =
  let leader = List.fold_left max (List.hd vertices) vertices in
  (* Span positions: member [i] of [vertices] is marked [i], the [j]-th
     anchor that is not a member [-2 - j] (negative: outside the induced
     subgraph). *)
  let members = Array.of_list vertices in
  let k = Array.length members in
  Array.iteri
    (fun i v ->
      if mark.(v) <> -1 then invalid_arg "Part.create: duplicate vertex";
      mark.(v) <- i)
    members;
  let extra = ref [] and n_extra = ref 0 in
  List.iter
    (fun a ->
      if mark.(a) = -1 then begin
        mark.(a) <- -2 - !n_extra;
        incr n_extra;
        extra := a :: !extra
      end)
    anchors;
  let span = Array.append members (Array.of_list (List.rev !extra)) in
  let pos v =
    let x = mark.(v) in
    if x >= 0 then x else k - 2 - x
  in
  (* Spanning tree over the part plus its anchors (the "split-off copies"
     of P0 coordinators), rooted at the leader: a BFS on [g] restricted to
     the marked vertices. CSR neighbours come in ascending id order, so
     this is the BFS tree of the span set's induced subgraph under any
     monotone relabelling. *)
  let n_span = Array.length span in
  let dist = Array.make n_span (-1) in
  let queue = Array.make n_span leader in
  let tree_parent = Hashtbl.create n_span in
  Hashtbl.replace tree_parent leader leader;
  dist.(pos leader) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let d = dist.(pos v) + 1 in
    Gr.iter_neighbors g v (fun w ->
        if mark.(w) <> -1 && dist.(pos w) < 0 then begin
          dist.(pos w) <- d;
          Hashtbl.replace tree_parent w v;
          queue.(!tail) <- w;
          incr tail
        end)
  done;
  if !tail < n_span then begin
    let unreached = ref max_int in
    Array.iteri
      (fun i v -> if dist.(i) < 0 then unreached := min !unreached v)
      span;
    invalid_arg
      (Printf.sprintf "Part.create: part %d is not connected (vertex %d)" id
         !unreached)
  end;
  let depth = dist.(pos queue.(n_span - 1)) in
  (* Structure of the induced subgraph proper (without anchors), built
     once for the triviality test, the biconnected decomposition and the
     constrained embedding. *)
  let index v = mark.(v) in
  let sub = Gr.induced_by g ~index members in
  let trivial = Gr.m sub = k - 1 in
  let dec = Bicon.decompose sub in
  let n_bicon = dec.Bicon.n_components in
  let emb =
    match mode with
    | Economy -> None
    | Faithful -> (
        match
          Constrained.embed_induced g ~part:vertices
            ~induced:(sub, members, index) ~half
        with
        | Some e -> Some e
        | None ->
            raise
              (Nonplanar_detected
                 (Printf.sprintf
                    "part %d admits no embedding with its half-embedded \
                     edges on one face"
                    id)))
  in
  let w = word g in
  let iface_bits =
    (* Compressed interface: one (class, count) leaf per maximal run of
       half-embedded edges with the same outside endpoint, plus 2 bits of
       structure per biconnected component. In Economy mode the realized
       outer order is unknown; the number of distinct outside endpoints is
       the run-count estimate. *)
    let runs =
      match emb with
      | Some e -> cyclic_runs (fun (_u, v) -> classify v) e.Constrained.outer
      | None ->
          List.length
            (List.sort_uniq compare (List.map (fun (_u, v) -> classify v) half))
    in
    2 + (runs * (2 + (2 * w))) + (2 * n_bicon)
  in
  {
    id;
    vertices;
    leader;
    tree_parent;
    depth;
    anchors;
    trivial;
    n_bicon;
    half;
    emb;
    iface_bits;
  }

let create g ~mode ~classify ~mark ~half ~id ~vertices ~anchors =
  let clear v = mark.(v) <- -1 in
  Fun.protect
    ~finally:(fun () ->
      List.iter clear vertices;
      List.iter clear anchors)
    (fun () -> build g ~mode ~classify ~mark ~half ~id ~vertices ~anchors)

let size t = List.length t.vertices
let mem t v = Hashtbl.mem t.tree_parent v && not (List.mem v t.anchors)

let path_to_leader t v =
  let rec up v acc =
    let p = Hashtbl.find t.tree_parent v in
    if p = v then List.rev (v :: acc) else up p (v :: acc)
  in
  up v []

let parent_fn t v = Hashtbl.find t.tree_parent v
