type edge = int * int

(* The representation is CSR (compressed sparse row): [xadj] holds the
   n+1 slice offsets, [adjncy] the 2m neighbor ids (each slice sorted
   ascending). A {e dart} is a directed edge; its dense id is its slot in
   [adjncy], so the darts pointing {e into} a vertex [v] are the
   contiguous range [xadj.(v) .. xadj.(v+1) - 1], ordered by source id —
   exactly the delivery order the CONGEST engine guarantees.
   [dart_uedge] maps each dart to the dense index of its undirected edge;
   edges are numbered in lexicographic order, and [edge_dart.(e)] names
   edge [(u, v)], [u < v], by its dart [u -> v] (the slot holding [u] in
   [v]'s slice). Every array is owned by the graph. *)
type t = {
  n : int;
  xadj : int array;
  adjncy : int array;
  dart_uedge : int array;
  dart_rev : int array;  (* the opposite dart: rev of u -> v is v -> u *)
  edge_dart : int array;
}

let normalize_edge u v =
  if u = v then invalid_arg "Gr.normalize_edge: self-loop";
  if u < v then (u, v) else (v, u)

let check_vertex n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Gr: vertex %d out of range [0, %d)" v n)

(* The pairs [(key.(i), other.(i))], [i < raw], stably sorted by [key]. *)
let sort_by_vertex ~n ~raw key other =
  let start = Array.make (n + 1) 0 in
  for i = 0 to raw - 1 do
    start.(key.(i) + 1) <- start.(key.(i) + 1) + 1
  done;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let key' = Array.make raw 0 and other' = Array.make raw 0 in
  for i = 0 to raw - 1 do
    let k = key.(i) in
    let j = start.(k) in
    key'.(j) <- k;
    other'.(j) <- other.(i);
    start.(k) <- j + 1
  done;
  (key', other')

(* The one assembly core behind every constructor: the graph on [n]
   vertices whose edges are the pairs [(a.(i), b.(i))], [i < raw], given
   in any orientation and order, duplicates allowed. Checks every pair,
   normalizes [a] and [b] in place, and runs in O(n + raw). *)
let assemble ~n ~raw a b =
  for i = 0 to raw - 1 do
    let u = a.(i) and v = b.(i) in
    check_vertex n u;
    check_vertex n v;
    if u = v then invalid_arg "Gr.normalize_edge: self-loop";
    if u > v then begin
      a.(i) <- v;
      b.(i) <- u
    end
  done;
  (* Lexicographic order in O(n + raw): by [hi], then stably by [lo]. *)
  let (hi, lo) = sort_by_vertex ~n ~raw b a in
  let (lo, hi) = sort_by_vertex ~n ~raw lo hi in
  (* Dedup in place into [lo, hi.(0 .. m-1)], counting degrees. *)
  let xadj = Array.make (n + 1) 0 in
  let m = ref 0 in
  for j = 0 to raw - 1 do
    let u = lo.(j) and v = hi.(j) in
    if !m = 0 || u <> lo.(!m - 1) || v <> hi.(!m - 1) then begin
      lo.(!m) <- u;
      hi.(!m) <- v;
      incr m;
      xadj.(u + 1) <- xadj.(u + 1) + 1;
      xadj.(v + 1) <- xadj.(v + 1) + 1
    end
  done;
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v + 1) + xadj.(v)
  done;
  let nd = xadj.(n) in
  let adjncy = Array.make nd 0 in
  let dart_uedge = Array.make nd 0 in
  let dart_rev = Array.make nd 0 in
  let edge_dart = Array.make !m 0 in
  let fill = Array.sub xadj 0 n in
  (* The edges are lex-sorted, so each slice comes out sorted: vertex [v]
     first receives its lower neighbors (edges [(u, v)], increasing [u]),
     then its higher neighbors (edges [(v, w)], increasing [w]). Slot
     [su] in [u]'s slice holds neighbor [v], i.e. the dart [v -> u]; its
     reversal [u -> v] is the matching slot [sv] in [v]'s slice — both
     are known here, so the involution costs nothing extra to record. *)
  for e = 0 to !m - 1 do
    let u = lo.(e) and v = hi.(e) in
    let su = fill.(u) and sv = fill.(v) in
    adjncy.(su) <- v;
    dart_uedge.(su) <- e;
    adjncy.(sv) <- u;
    dart_uedge.(sv) <- e;
    dart_rev.(su) <- sv;
    dart_rev.(sv) <- su;
    edge_dart.(e) <- sv;
    fill.(u) <- su + 1;
    fill.(v) <- sv + 1
  done;
  { n; xadj; adjncy; dart_uedge; dart_rev; edge_dart }

let empty n = assemble ~n ~raw:0 [||] [||]
let n t = t.n
let m t = Array.length t.edge_dart
let degree t v = t.xadj.(v + 1) - t.xadj.(v)
let neighbors t v = Array.sub t.adjncy t.xadj.(v) (degree t v)

let iter_neighbors t v f =
  for i = t.xadj.(v) to t.xadj.(v + 1) - 1 do
    f t.adjncy.(i)
  done

let fold_neighbors t v ~init ~f =
  let acc = ref init in
  for i = t.xadj.(v) to t.xadj.(v + 1) - 1 do
    acc := f !acc t.adjncy.(i)
  done;
  !acc

(* Slot of [x] in the sorted CSR slice [lo, hi) of [a], or -1. *)
let rec slice_find a lo hi x =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let y = a.(mid) in
    if y = x then mid
    else if y < x then slice_find a (mid + 1) hi x
    else slice_find a lo mid x
  end

let mem_edge t u v =
  u <> v
  && u >= 0 && v >= 0 && u < t.n && v < t.n
  && slice_find t.adjncy t.xadj.(v) t.xadj.(v + 1) u >= 0

let edge_of_index t i =
  let d = t.edge_dart.(i) in
  (t.adjncy.(d), t.adjncy.(t.dart_rev.(d)))

let edges t = List.init (m t) (edge_of_index t)

let iter_edges t f =
  Array.iter (fun d -> f t.adjncy.(d) t.adjncy.(t.dart_rev.(d))) t.edge_dart

let fold_vertices t ~init ~f =
  let acc = ref init in
  for v = 0 to t.n - 1 do
    acc := f !acc v
  done;
  !acc

let darts t = Array.length t.adjncy

let dart t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src = dst then
    raise Not_found;
  let i = slice_find t.adjncy t.xadj.(dst) t.xadj.(dst + 1) src in
  if i < 0 then raise Not_found;
  i

let dart_src t d = t.adjncy.(d)
let dart_edge t d = t.dart_uedge.(d)
let dart_rev t d = t.dart_rev.(d)
let dart_offsets t = t.xadj
let dart_sources t = t.adjncy
let dart_edges t = t.dart_uedge
let dart_reversals t = t.dart_rev

let edge_index t u v =
  if u = v then invalid_arg "Gr.normalize_edge: self-loop";
  t.dart_uedge.(dart t ~src:u ~dst:v)

let induced_by t ~index old_of_new =
  (* The members' degrees bound the edge count. *)
  let cap = Array.fold_left (fun acc v -> acc + degree t v) 0 old_of_new in
  let a = Array.make cap 0 and b = Array.make cap 0 in
  let raw = ref 0 in
  Array.iteri
    (fun i v ->
      iter_neighbors t v (fun w ->
          let j = index w in
          if j > i then begin
            a.(!raw) <- i;
            b.(!raw) <- j;
            incr raw
          end))
    old_of_new;
  assemble ~n:(Array.length old_of_new) ~raw:!raw a b

let induced t vs =
  let k = List.length vs in
  let old_of_new = Array.of_list vs in
  let new_idx = Hashtbl.create k in
  Array.iteri
    (fun i v ->
      check_vertex t.n v;
      if Hashtbl.mem new_idx v then invalid_arg "Gr.induced: duplicate vertex";
      Hashtbl.replace new_idx v i)
    old_of_new;
  let index w = match Hashtbl.find_opt new_idx w with Some j -> j | None -> -1 in
  (induced_by t ~index old_of_new, old_of_new, fun v -> Hashtbl.find new_idx v)

let union_vertices t ~more extra =
  if more < 0 then invalid_arg "Gr.union_vertices: negative ~more";
  let k = List.length extra and m = m t in
  let a = Array.make (k + m) 0 and b = Array.make (k + m) 0 in
  List.iteri
    (fun i (u, v) ->
      a.(i) <- u;
      b.(i) <- v)
    extra;
  Array.iteri
    (fun e d ->
      a.(k + e) <- t.adjncy.(d);
      b.(k + e) <- t.adjncy.(t.dart_rev.(d)))
    t.edge_dart;
  assemble ~n:(t.n + more) ~raw:(k + m) a b

let of_edges ~n edges =
  if n < 0 then invalid_arg "Gr.of_edges: negative n";
  union_vertices (empty 0) ~more:n edges

let relabel t perm =
  if Array.length perm <> t.n then invalid_arg "Gr.relabel: bad permutation";
  let seen = Array.make t.n false in
  Array.iter
    (fun p ->
      check_vertex t.n p;
      if seen.(p) then invalid_arg "Gr.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  let a = Array.map (fun d -> perm.(t.adjncy.(d))) t.edge_dart in
  let b = Array.map (fun d -> perm.(t.adjncy.(t.dart_rev.(d)))) t.edge_dart in
  assemble ~n:t.n ~raw:(m t) a b

let pp ppf t =
  Format.fprintf ppf "@[<v>graph n=%d m=%d" t.n (m t);
  iter_edges t (fun u v -> Format.fprintf ppf "@ %d -- %d" u v);
  Format.fprintf ppf "@]"
