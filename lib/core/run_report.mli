(** Characterization run report: first-class observability for the
    engine's performance trajectory.

    One entry per workload records the wall time, cycle and instruction
    counts, cache misses, stall/interlock counts, reference energy and —
    crucially — the number of simulations performed, which lets tests and
    the bench harness verify the single-pass property (exactly one
    simulation per test program).  The report also carries the worker
    pool's degraded-path counters, so silent serial fallbacks or
    parent-side recomputations are visible after the fact.

    Units: [energy_pj] fields are picojoules (the pretty-printer converts
    to uJ for reading); [wall_seconds]/[total_seconds] are seconds.  The
    JSON states this in an explicit ["units"] object. *)

type entry = {
  ename : string;
  wall_seconds : float;      (** wall-clock time of the simulation *)
  cycles : int;
  instructions : int;
  icache_misses : int;
  dcache_misses : int;
  stall_cycles : int;        (** operand-dependency stall cycles *)
  interlocks : int;          (** interlock + window events *)
  energy_pj : float;         (** reference-estimator energy, picojoules *)
  simulations : int;         (** simulator runs performed (1 = single pass) *)
}

type degraded = {
  serial_fallbacks : int;    (** whole maps that fell back to serial *)
  failed_forks : int;        (** fork/pipe attempts that failed *)
  recomputed_slices : int;   (** worker slices recomputed in the parent *)
}

val no_degraded : degraded
(** All-zero degradation counters (a fully healthy run). *)

type t = {
  entries : entry list;
  total_seconds : float;     (** wall clock of the whole collection *)
  jobs : int;                (** worker count used *)
  parallel : degraded;       (** worker-pool degradation counters *)
  sim_backend : string;      (** {!Sim.Backend} name that produced the
                                 entries ({!Sim.Backend.name}); reports
                                 predating the field parse as ["interp"] *)
}

val total_simulations : t -> int
(** Sum of per-entry simulation counts; equals the entry count when the
    engine kept its single-pass promise. *)

val total_energy_pj : t -> float
(** Aggregate reference energy over all entries, picojoules. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table (energies in uJ). *)

val json : t -> Obs.Json.t
(** The report as a JSON value (an explicit ["units"] object states the
    energy and time units), for embedding in a larger document. *)

val to_json : t -> string
(** {!json}, printed. *)

val of_json : string -> t
(** Parse a document produced by {!to_json}; finite floats round-trip
    exactly.
    @raise Obs.Json.Parse_error on malformed input. *)

val save : string -> t -> unit
(** Write {!to_json} (plus a trailing newline) to a file. *)
