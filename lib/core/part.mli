(** Parts of the embedding algorithm's partition (Section 3 of the paper).

    A part is a connected set of vertices together with the distributed
    machinery the algorithm maintains for it: a leader, a low-depth
    spanning tree used for internal upcasts/downcasts, the current partial
    embedding (all half-embedded edges on one face, via the apex
    construction of {!Constrained}), and the size of its compressed
    interface summary — the number of bits the part ships when it takes
    part in a merge.

    {e Anchors} implement step 2(e) of the Section 5.3 algorithm: when a
    vertex-coordinated merge around a [P0]-vertex [i] could blow up a
    part's diameter, the paper "splits off a copy" of [i] into the part.
    Here the copy is realized by letting the part's spanning tree route
    through [i] (the congestion on [i]'s real edges is charged normally),
    which restores [O(D)] depth exactly as in the paper. *)

type mode =
  | Faithful
      (** maintain a real partial embedding at every merge (catches
          non-planarity early; interface sizes are the realized ones). *)
  | Economy
      (** skip intermediate embeddings; interface sizes are estimated from
          the biconnected structure. For large benchmark sweeps; the
          ablation experiment compares the two cost profiles. *)

type t = {
  id : int;
  vertices : int list;
  leader : int;  (** maximum id in the part. *)
  tree_parent : (int, int) Hashtbl.t;
      (** spanning-tree parent (global ids) of every member and anchor;
          the leader maps to itself. *)
  depth : int;
  anchors : int list;
  trivial : bool;  (** induces a tree (Definition preceding Def. 3.1). *)
  n_bicon : int;  (** biconnected components of the induced subgraph. *)
  half : (int * int) list;  (** half-embedded edges at creation time. *)
  emb : Constrained.t option;  (** partial embedding ([Faithful] mode). *)
  iface_bits : int;  (** compressed interface size in bits. *)
}

exception Nonplanar_detected of string
(** Raised as soon as some partial embedding fails — for a safe partition
    this certifies the whole network non-planar. *)

val create :
  Gr.t ->
  mode:mode ->
  classify:(int -> int) ->
  mark:int array ->
  half:(int * int) list ->
  id:int ->
  vertices:int list ->
  anchors:int list ->
  t
(** Build a part over the given (connected) vertex set. [classify] maps an
    outside endpoint to its communication class (the embedder passes the
    endpoint's current part id): consecutive half-embedded edges of the
    same class collapse into one compressed interface leaf — the paper's
    "only essential degrees of freedom" compression (its Section 7.1.4).
    [mark] is scratch of length [Gr.n g], [-1] everywhere on entry and
    again on return (raising or not): it indexes the part's vertices
    while its induced subgraph, spanning tree and embedding are built.
    @raise Nonplanar_detected in [Faithful] mode when no embedding places
    all half-embedded edges on one face. *)

val size : t -> int
val mem : t -> int -> bool

val path_to_leader : t -> int -> int list
(** Tree path from a member (or anchor) up to the leader, inclusive. *)

val parent_fn : t -> int -> int
(** The spanning-tree parent as a function (for cost charging). *)

val word : Gr.t -> int
(** Bits of one identifier. *)
