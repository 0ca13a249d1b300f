(** Cycle-bucketed energy-over-time waveform.

    An accumulator that bins per-instruction energy contributions by
    their retirement cycle, giving a software reproduction of the
    cycle-resolved power waveforms of hardware-accelerated power
    estimation: bucket energy divided by bucket width is average power
    in pJ/cycle. *)

type t

val create : ?bucket_cycles:int -> unit -> t
(** [bucket_cycles] defaults to 64 cycles per bin. *)

val bucket_cycles : t -> int
(** The bin width this accumulator was created with. *)

val add : t -> cycle:int -> energy_pj:float -> unit
(** Accumulate [energy_pj] into the bucket containing [cycle].  Negative
    cycles clamp to bucket 0; the bucket array grows as needed. *)

val buckets : t -> (int * float) array
(** [(start_cycle, energy_pj)] per bucket, in cycle order, up to the last
    touched bucket. *)

val total_pj : t -> float
(** Sum over all buckets (the workload's total binned energy). *)

val reset : t -> unit
(** Zero all buckets, keeping the bin width. *)

val json : t -> Json.t
(** [{"bucket_cycles": n, "unit": "pJ", "buckets": [{"cycle": c,
    "energy_pj": e}, ...]}], for embedding in a larger document. *)

val to_json : t -> string
(** {!json}, printed. *)

val pp : Format.formatter -> t -> unit
(** ASCII power-over-time rendering (one bar per bucket, downsampled to
    at most 48 rows). *)
