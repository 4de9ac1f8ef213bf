let state seed = Random.State.make [| seed; 0x9e3779b9 |]

let path n =
  Gr.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need n >= 3";
  Gr.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  Gr.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Gr.of_edges ~n !edges

let complete_bipartite a b =
  let edges = ref [] in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Gr.of_edges ~n:(a + b) !edges

let wheel n =
  if n < 4 then invalid_arg "Gen.wheel: need n >= 4";
  let rim = n - 1 in
  let hub = n - 1 in
  let edges =
    List.init rim (fun i -> (i, (i + 1) mod rim))
    @ List.init rim (fun i -> (hub, i))
  in
  Gr.of_edges ~n edges

let ladder k =
  if k < 2 then invalid_arg "Gen.ladder: need k >= 2";
  let rail = List.init (k - 1) (fun i -> [ (i, i + 1); (k + i, k + i + 1) ]) in
  let rungs = List.init k (fun i -> (i, k + i)) in
  Gr.of_edges ~n:(2 * k) (rungs @ List.concat rail)

let fan n =
  if n < 2 then invalid_arg "Gen.fan: need n >= 2";
  let path = List.init (n - 2) (fun i -> (i, i + 1)) in
  let spokes = List.init (n - 1) (fun i -> (n - 1, i)) in
  Gr.of_edges ~n (path @ spokes)

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid: need positive dims";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Gr.of_edges ~n:(rows * cols) !edges

let triangular_grid rows cols =
  let g = grid rows cols in
  let id r c = (r * cols) + c in
  let diags = ref [] in
  for r = 0 to rows - 2 do
    for c = 0 to cols - 2 do
      diags := (id r c, id (r + 1) (c + 1)) :: !diags
    done
  done;
  Gr.union_vertices g ~more:0 !diags

let toroidal_grid rows cols =
  if rows < 3 || cols < 3 then invalid_arg "Gen.toroidal_grid: need dims >= 3";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      edges := (id r c, id r ((c + 1) mod cols)) :: !edges;
      edges := (id r c, id ((r + 1) mod rows) c) :: !edges
    done
  done;
  Gr.of_edges ~n:(rows * cols) !edges

let binary_tree n =
  Gr.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i + 1, i / 2)))

let k5 () = complete 5
let k33 () = complete_bipartite 3 3

let petersen () =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let spokes = List.init 5 (fun i -> (i, 5 + i)) in
  Gr.of_edges ~n:10 (outer @ inner @ spokes)

let subdivide g k =
  if k < 1 then invalid_arg "Gen.subdivide: need k >= 1";
  if k = 1 then g
  else begin
    let n0 = Gr.n g in
    let next = ref n0 in
    let edges = ref [] in
    Gr.iter_edges g (fun u v ->
        let prev = ref u in
        for _ = 1 to k - 1 do
          edges := (!prev, !next) :: !edges;
          prev := !next;
          incr next
        done;
        edges := (!prev, v) :: !edges);
    Gr.of_edges ~n:!next !edges
  end

let k4_subdivision seglen = subdivide (complete 4) seglen

let random_tree ~seed n =
  let rng = state seed in
  Gr.of_edges ~n
    (List.init (max 0 (n - 1)) (fun i ->
         (i + 1, Random.State.int rng (i + 1))))

let random_maximal_planar ~seed n =
  if n < 3 then invalid_arg "Gen.random_maximal_planar: need n >= 3";
  let rng = state seed in
  let edges = ref [ (0, 1); (1, 2); (0, 2) ] in
  (* Growable face list; a face is an (a, b, c) triangle. *)
  let faces = ref [| (0, 1, 2); (0, 1, 2) |] in
  let nfaces = ref 2 in
  let push face =
    if !nfaces = Array.length !faces then begin
      let bigger = Array.make (2 * !nfaces) (0, 0, 0) in
      Array.blit !faces 0 bigger 0 !nfaces;
      faces := bigger
    end;
    !faces.(!nfaces) <- face;
    incr nfaces
  in
  for v = 3 to n - 1 do
    let i = Random.State.int rng !nfaces in
    let (a, b, c) = !faces.(i) in
    edges := (v, a) :: (v, b) :: (v, c) :: !edges;
    !faces.(i) <- (a, b, v);
    push (b, c, v);
    push (a, c, v)
  done;
  Gr.of_edges ~n !edges

let sample_without_replacement rng pool k =
  (* Partial Fisher–Yates over a copy of the pool. *)
  let a = Array.copy pool in
  let len = Array.length a in
  if k > len then invalid_arg "Gen: sample too large";
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (len - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 k)

let spanning_tree_plus_extras rng g m =
  let n = Gr.n g in
  if m < n - 1 then invalid_arg "Gen: m < n - 1";
  let all = Array.of_list (Gr.edges g) in
  if m > Array.length all then invalid_arg "Gen: m exceeds available edges";
  (* Random spanning tree: scan edges in random order, keep tree edges. *)
  let order = Array.copy all in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let uf = Unionfind.create n in
  let tree = ref [] and rest = ref [] in
  Array.iter
    (fun (u, v) ->
      if Unionfind.union uf u v then tree := (u, v) :: !tree
      else rest := (u, v) :: !rest)
    order;
  let extra = m - List.length !tree in
  let extras = sample_without_replacement rng (Array.of_list !rest) extra in
  Gr.of_edges ~n (extras @ !tree)

let random_planar ~seed ~n ~m =
  if n <= 2 then begin
    (* Degenerate sizes (every such graph is planar). *)
    if m < max 0 (n - 1) || m > n * (n - 1) / 2 then
      invalid_arg "Gen.random_planar: bad m for tiny n";
    Gr.of_edges ~n (if n = 2 && m = 1 then [ (0, 1) ] else [])
  end
  else begin
    let rng = state seed in
    let maximal = random_maximal_planar ~seed:(seed + 1) n in
    if m > Gr.m maximal then invalid_arg "Gen.random_planar: m > 3n - 6";
    spanning_tree_plus_extras rng maximal m
  end

let random_outerplanar ~seed ~n ~chord_prob =
  if n < 3 then invalid_arg "Gen.random_outerplanar: need n >= 3";
  let rng = state seed in
  let chords = ref [] in
  (* Random triangulation of the polygon 0 .. n-1 by recursive splitting. *)
  let rec split i j =
    if j - i >= 2 then begin
      let k = i + 1 + Random.State.int rng (j - i - 1) in
      if k - i > 1 then chords := (i, k) :: !chords;
      if j - k > 1 then chords := (k, j) :: !chords;
      split i k;
      split k j
    end
  in
  split 0 (n - 1);
  let kept =
    List.filter (fun _ -> Random.State.float rng 1.0 < chord_prob) !chords
  in
  Gr.union_vertices (cycle n) ~more:0 kept

let random_graph ~seed ~n ~m =
  let rng = state seed in
  let max_m = n * (n - 1) / 2 in
  if m > max_m then invalid_arg "Gen.random_graph: too many edges";
  let chosen = Hashtbl.create m in
  let edges = ref [] in
  while List.length !edges < m do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then begin
      let e = Gr.normalize_edge u v in
      if not (Hashtbl.mem chosen e) then begin
        Hashtbl.replace chosen e ();
        edges := e :: !edges
      end
    end
  done;
  Gr.of_edges ~n !edges

let random_connected_graph ~seed ~n ~m =
  if m < n - 1 then invalid_arg "Gen.random_connected_graph: m < n - 1";
  let rng = state seed in
  let tree = random_tree ~seed:(seed + 17) n in
  let tree_edges = Gr.edges tree in
  let chosen = Hashtbl.create m in
  List.iter (fun e -> Hashtbl.replace chosen e ()) tree_edges;
  let edges = ref tree_edges in
  let count = ref (List.length tree_edges) in
  let max_m = n * (n - 1) / 2 in
  if m > max_m then invalid_arg "Gen.random_connected_graph: too many edges";
  while !count < m do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then begin
      let e = Gr.normalize_edge u v in
      if not (Hashtbl.mem chosen e) then begin
        Hashtbl.replace chosen e ();
        edges := e :: !edges;
        incr count
      end
    end
  done;
  Gr.of_edges ~n !edges

let random_permutation ~seed n =
  let rng = state seed in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
