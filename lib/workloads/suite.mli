(** Workload registry. *)

val characterization : unit -> Core.Extract.case list
(** The 25 characterization test programs. *)

val applications : unit -> Core.Extract.case list
(** The ten Table II application benchmarks, in the paper's order:
    ins_sort, gcd, alphablend, add4, bubsort, des, accumulate, drawline,
    multi_accumulate, seq_mult. *)

val reed_solomon_choices : unit -> Core.Extract.case list
(** The four Fig. 4 custom-instruction alternatives. *)

val c_applications : unit -> Core.Extract.case list
(** Applications compiled from Tiny-C sources ({!C_apps}). *)

(** {1 The registry}

    [all] and [find] are served from one name-indexed table per
    process, built on first use (thread-safe) and shared thereafter: the
    same name always yields the physically equal case.  The group
    functions above build fresh values on each call. *)

val all : unit -> Core.Extract.case list
(** Every workload: characterization, applications, Reed-Solomon
    choices, then the Tiny-C applications. *)

val find : string -> Core.Extract.case
(** Look up any workload by name in O(1).  @raise Not_found. *)

val names : unit -> string list
(** The names of {!all}, in order. *)
