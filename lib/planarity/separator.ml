type t = {
  separator : int list;
  components : int list list;
  balance : float;
}

let components_without g sep =
  let n = Gr.n g in
  let banned = Array.make n false in
  List.iter (fun v -> banned.(v) <- true) sep;
  let seen = Array.make n false in
  let comps = ref [] in
  for s = 0 to n - 1 do
    if (not banned.(s)) && not seen.(s) then begin
      let comp = ref [] in
      let queue = Queue.create () in
      seen.(s) <- true;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        comp := v :: !comp;
        Gr.iter_neighbors g v (fun w ->
            if (not banned.(w)) && not seen.(w) then begin
              seen.(w) <- true;
              Queue.add w queue
            end)
      done;
      comps := !comp :: !comps
    end
  done;
  !comps

let result_of g sep =
  let comps = components_without g sep in
  let biggest = List.fold_left (fun acc c -> max acc (List.length c)) 0 comps in
  {
    separator = List.sort_uniq compare sep;
    components = comps;
    balance = float_of_int biggest /. float_of_int (max 1 (Gr.n g));
  }

(* Greedily triangulate the faces of an embedding by adding diagonals
   (ear clipping on each boundary walk, skipping chords that already
   exist); iterate embed+triangulate until faces stabilize. Returns a
   supergraph of [g] on the same vertices. *)
let triangulate g =
  let current = ref g in
  let continue = ref true in
  let rounds = ref 0 in
  while !continue && !rounds < 5 do
    incr rounds;
    continue := false;
    match Planarity.embed !current with
    | Planarity.Nonplanar -> invalid_arg "Separator.triangulate: non-planar"
    | Planarity.Planar rot ->
        let added = Hashtbl.create 16 in
        let fresh = ref [] in
        List.iter
          (fun face ->
            (* Boundary walk as a vertex list. *)
            let poly = ref (List.map fst face) in
            let progress = ref true in
            while List.length !poly > 3 && !progress do
              progress := false;
              let arr = Array.of_list !poly in
              let k = Array.length arr in
              let i = ref 0 in
              let clipped = ref false in
              while (not !clipped) && !i < k do
                let a = arr.((!i + k - 1) mod k)
                and b = arr.(!i)
                and c = arr.((!i + 1) mod k) in
                if
                  a <> c && a <> b && b <> c
                  && (not (Gr.mem_edge !current a c))
                  && not (Hashtbl.mem added (Gr.normalize_edge a c))
                then begin
                  Hashtbl.replace added (Gr.normalize_edge a c) ();
                  fresh := (a, c) :: !fresh;
                  (* clip b out of the polygon *)
                  poly :=
                    List.filteri (fun j _ -> j <> !i) (Array.to_list arr);
                  clipped := true;
                  progress := true
                end
                else incr i
              done
            done)
          (Rotation.faces rot);
        if !fresh <> [] then begin
          current := Gr.union_vertices !current ~more:0 !fresh;
          continue := true
        end
  done;
  !current

(* Fundamental cycle of a non-tree edge (u, v) w.r.t. a BFS tree: the two
   root paths up to the LCA plus the edge. *)
let fundamental_cycle bt u v =
  let open Traverse in
  let rec lift a b =
    (* climb the deeper one *)
    if a = b then a
    else if bt.dist.(a) >= bt.dist.(b) then lift bt.parent.(a) b
    else lift a bt.parent.(b)
  in
  let l = lift u v in
  let rec up x acc = if x = l then x :: acc else up bt.parent.(x) (x :: acc) in
  List.rev_append (up u []) (List.tl (up v []))

let separate g =
  let n = Gr.n g in
  if n = 0 then invalid_arg "Separator.separate: empty graph";
  if not (Traverse.is_connected g) then
    invalid_arg "Separator.separate: disconnected graph";
  if not (Planarity.is_planar g) then
    invalid_arg "Separator.separate: non-planar graph";
  if n <= 3 then result_of g []
  else begin
    let bt = Traverse.bfs g 0 in
    let h = Traverse.depth bt in
    let level_members = Array.make (h + 1) [] in
    Array.iter
      (fun v ->
        let l = bt.Traverse.dist.(v) in
        level_members.(l) <- v :: level_members.(l))
      bt.Traverse.order;
    let level_size l =
      if l < 0 || l > h then 0 else List.length level_members.(l)
    in
    let cum = Array.make (h + 2) 0 in
    for l = 0 to h do
      cum.(l + 1) <- cum.(l) + level_size l
    done;
    (* cum.(l+1) = vertices at levels <= l *)
    let lm =
      let rec find l = if cum.(l + 1) > n / 2 then l else find (l + 1) in
      find 0
    in
    let k = cum.(lm + 1) in
    let budget_top = 2.0 *. sqrt (float_of_int k) in
    let budget_bot = 2.0 *. sqrt (float_of_int (n - k + level_size lm)) in
    (* l1 <= lm minimizing over levels satisfying the sqrt budget (LT
       guarantees one exists); fall back to the minimizer otherwise. *)
    let pick lo hi budget slack_of =
      let best = ref lo and best_val = ref infinity in
      for l = lo to hi do
        let v = float_of_int (level_size l + (2 * slack_of l)) in
        if v < !best_val then begin
          best_val := v;
          best := l
        end
      done;
      ignore budget;
      !best
    in
    let l1 = pick 0 lm budget_top (fun l -> lm - l) in
    let l2 = pick (lm + 1) (h + 1) budget_bot (fun l -> l - lm - 1) in
    (* levels h+1 .. empty: an l2 beyond the depth means no bottom cut *)
    let levels_sep =
      level_members.(l1)
      @ (if l2 <= h then level_members.(l2) else [])
    in
    let middle = ref [] in
    for l = l1 + 1 to min (l2 - 1) h do
      middle := level_members.(l) @ !middle
    done;
    let middle = !middle in
    if 3 * List.length middle <= 2 * n then result_of g levels_sep
    else begin
      (* Phase 2: fundamental cycle in the shrunken middle graph. *)
      let mid_idx = Hashtbl.create (List.length middle) in
      List.iteri (fun i v -> Hashtbl.replace mid_idx v i) middle;
      let mid_arr = Array.of_list middle in
      let r = Array.length mid_arr in
      (* r is the contracted top ball *)
      let edges = ref [] in
      List.iter
        (fun v ->
          let iv = Hashtbl.find mid_idx v in
          Array.iter
            (fun w ->
              match Hashtbl.find_opt mid_idx w with
              | Some iw -> if iv < iw then edges := (iv, iw) :: !edges
              | None ->
                  if bt.Traverse.dist.(w) <= l1 then edges := (iv, r) :: !edges)
            (Gr.neighbors g v))
        middle;
      let shrunk = Gr.of_edges ~n:(r + 1) !edges in
      let tri = triangulate shrunk in
      let tbt = Traverse.bfs tri r in
      (* Candidate separators: levels plus each fundamental cycle's
         original vertices; keep the best balance, stop at <= 2/3. *)
      let tree_edge u v =
        tbt.Traverse.parent.(u) = v || tbt.Traverse.parent.(v) = u
      in
      let best = ref (result_of g levels_sep) in
      (try
         Gr.iter_edges tri (fun u v ->
             if not (tree_edge u v) then begin
               let cyc = fundamental_cycle tbt u v in
               let cyc_orig =
                 List.filter_map
                   (fun x -> if x < r then Some mid_arr.(x) else None)
                   cyc
               in
               let cand = result_of g (levels_sep @ cyc_orig) in
               if cand.balance < !best.balance then best := cand;
               if 3.0 *. !best.balance <= 2.0 then raise Exit
             end)
       with Exit -> ());
      !best
    end
  end

let check g t =
  let n = Gr.n g in
  let where = Array.make n (-2) in
  List.iter (fun v -> where.(v) <- -1) t.separator;
  let ok = ref true in
  List.iteri
    (fun i comp ->
      List.iter
        (fun v -> if where.(v) <> -2 then ok := false else where.(v) <- i)
        comp;
      (* Each component is connected. *)
      let (h, _, _) = Gr.induced g comp in
      if not (Traverse.is_connected h) then ok := false)
    t.components;
  (* Exact cover. *)
  Array.iter (fun w -> if w = -2 then ok := false) where;
  (* No edge between two different components. *)
  Gr.iter_edges g (fun u v ->
      if where.(u) >= 0 && where.(v) >= 0 && where.(u) <> where.(v) then
        ok := false);
  let biggest =
    List.fold_left (fun acc c -> max acc (List.length c)) 0 t.components
  in
  if abs_float (t.balance -. (float_of_int biggest /. float_of_int (max 1 n)))
     > 1e-9
  then ok := false;
  !ok
