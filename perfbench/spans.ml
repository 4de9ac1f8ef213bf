(* The benchmark's own tracer: spans around each public library call it
   makes, kept in memory and written out when the run ends. Nothing here
   reaches into the library; a span covers exactly one call (or one
   group of calls) as seen from the outside.

   A span's layer is its name up to the first '.', so "certify.prove"
   and "certify.verify" both belong to "certify". Self time is a span's
   duration minus the durations of its direct children. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] at top level. *)
  run : int;  (** the operation (or set-up step) the span belongs to. *)
  start : float;
  stop : float;
}

let enabled = ref false
let finished : span list ref = ref []
let stack : (int * string * int * float) list ref = ref []
let next_id = ref 0
let current_run = ref 0

(* Start a new run id: one per operation or set-up step. *)
let new_run () = incr current_run

let parent () = match !stack with (id, _, _, _) :: _ -> id | [] -> -1

(* [enter] and [leave] bracket one call; both do nothing when tracing is
   off. *)
let enter name =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    stack := (id, name, !current_run, Stats.wall ()) :: !stack
  end

let leave ?rename () =
  match !stack with
  | _ when not !enabled -> ()
  | [] -> invalid_arg "Spans.leave: no open span"
  | (id, name, run, start) :: rest ->
      stack := rest;
      let name = Option.value rename ~default:name in
      finished :=
        { id; name; parent = parent (); run; start; stop = Stats.wall () }
        :: !finished

(* [with_span name f] runs [f] inside a span when tracing is on, and
   bare otherwise. The span is closed even if [f] raises. *)
let with_span name f =
  enter name;
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

let all () = List.rev !finished
let duration s = s.stop -. s.start

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    (all ())
  |> Array.of_list

let total name = Array.fold_left ( +. ) 0.0 (durations name)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time summed per layer, in order of first appearance. *)
let self_by_layer () =
  let spans = all () in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
        Hashtbl.replace child s.parent (c +. duration s))
    spans;
  let acc = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let l = layer s.name in
      let self =
        duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      (match Hashtbl.find_opt acc l with
      | None -> order := l :: !order
      | Some _ -> ());
      Hashtbl.replace acc l
        (self +. Option.value (Hashtbl.find_opt acc l) ~default:0.0))
    spans;
  List.rev_map (fun l -> (l, Hashtbl.find acc l)) !order

let write_json path ~workload ~seed =
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"clock\": \"monotonic s\",\n \"spans\": [" workload seed;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"name\": %S, \"parent\": %d, \"run\": %d, \
         \"start\": %.9f, \"end\": %.9f}"
        (if i = 0 then "" else ",")
        s.id s.name s.parent s.run s.start s.stop)
    (all ());
  output_string oc "\n]}\n";
  close_out oc
