(** The planarity front: one [embed] entry point for every production
    caller, backed by the linear-time left-right kernel ({!Lr}).

    The quadratic {!Dmp} kernel stays in the library as the differential
    oracle: the test suite ([test_kernels], [test_certify]) and the
    kernel bench call it directly. Production code — [Baseline],
    [Separator], [Iface], [Constrained], [Kuratowski], the benches and
    the CLI — goes through this module. *)

type result = Dmp.result = Planar of Rotation.t | Nonplanar
(** Re-exported from {!Dmp} so pattern matches work against either
    kernel's verdict. *)

val embed : Gr.t -> result
(** Planarity test plus embedding. Any simple graph, connected or not.
    Accepted LR rotations have passed the face-tracing Euler check. *)

val is_planar : Gr.t -> bool

val embed_exn : Gr.t -> Rotation.t
(** @raise Invalid_argument if the graph is not planar. *)
