(** Low-overhead span/trace recorder with Chrome trace-event export.

    Spans are recorded into a process-global buffer and serialised as
    Chrome trace-event JSON ("Complete" events), loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Lanes
    map to trace thread ids: the main process records on tid 0, forked
    characterization workers on tid 1..N.  Disabled by default —
    {!with_span} is a single flag check when off.

    Forked workers call {!clear} + {!set_tid} after the fork, record
    normally, and ship {!drain} back to the parent in their result
    payload; the parent re-emits the events verbatim with {!emit_all},
    which is how per-worker lanes survive process boundaries. *)

type arg =
  | S of string
  | I of int
  | F of float
  | B of bool

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;      (** 'X' complete, 'i' instant, 'M' metadata *)
  ev_ts : float;     (** microseconds since the recorder epoch *)
  ev_dur : float;    (** microseconds; 0 for non-'X' phases *)
  ev_tid : int;
  ev_args : (string * arg) list;
}

val set_enabled : bool -> unit
(** Turn recording on or off globally (off by default). *)

val enabled : unit -> bool
(** Is recording currently on? *)

val set_tid : int -> unit
(** Lane for subsequently recorded events (0 = main). *)

val tid : unit -> int
(** The current lane — {!Log} stamps it on every record so log lines
    correlate with trace spans. *)

val now_us : unit -> float
(** Microseconds since the recorder epoch (process start; inherited
    across [fork], so parent and child timestamps are comparable). *)

(** {1 Request-scoped trace context}

    A context names one causal chain: a [trace_id] shared by every span
    of a request (client call, router phases, forked worker items) and a
    [span_id]/[parent_id] pair forming the span tree.  Contexts are
    thread-scoped the same way {!Log} correlation ids are: a scope-key
    function (default: constant [0]) maps the calling thread to a slot,
    and the server installs [Thread.id] so concurrent connections keep
    independent contexts.  {!with_span} run under a context mints a
    child span and stamps [trace_id]/[span_id]/[parent_id] args on the
    emitted event; pool workers receive the requesting connection's
    context with their batch (see [Core.Parallel.pool_map]).  A span's
    id is minted as an integer and formatted only when read (an export,
    a {!context} call), so recording a span costs no string work. *)

type context = {
  trace_id : string;   (** shared by every span of one request *)
  span_id : string;    (** this span *)
  parent_id : string option;  (** enclosing span, if any *)
}

val new_id : unit -> string
(** Fresh 16-hex-digit id; embeds the pid so ids minted in forked
    workers never collide with the parent's.  The pid and the random
    seed are cached per process, so no system call is made: a forked
    child that mints ids must call {!after_fork} or {!reseed_ids}
    first. *)

val reseed_ids : unit -> unit
(** Re-read the pid and draw a fresh seed for {!new_id}; for processes
    that start serving after a fork of a process that minted ids. *)

val set_context_key : (unit -> int) -> unit
(** Install the scope-key function used to slot contexts per thread
    (e.g. [fun () -> Thread.id (Thread.self ())]).  Default: constant 0. *)

val set_context : context option -> unit
(** Set ([Some]) or clear ([None]) the current scope's context. *)

val context : unit -> context option
(** The current scope's context, if any. *)

val with_context : context -> (unit -> 'a) -> 'a
(** Run the thunk with the given context installed in the current scope,
    restoring the previous context afterwards (even on raise). *)

val with_span :
  ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a complete event.  The span is recorded even if
    the thunk raises.  When tracing is disabled this is just the call.
    Under an ambient {!context}, the span becomes a child of it: the
    thunk runs with the child context installed, and the event carries
    [trace_id]/[span_id]/[parent_id] args. *)

val timed_span :
  ?cat:string ->
  ?args:(string * arg) list ->
  string ->
  (float -> unit) ->
  (unit -> 'a) ->
  'a
(** [timed_span name on_done f] is [with_span name f] that also hands
    [on_done] the thunk's wall time in seconds (also when it raises).
    The time is measured whether or not recording is on, from the same
    clock reads as the span, so a caller that keeps its own breakdown
    pays for one pair of reads, not two. *)

val complete :
  ?cat:string ->
  ?args:(string * arg) list ->
  ?tid:int ->
  ?ctx:context ->
  name:string ->
  ts:float ->
  dur:float ->
  unit ->
  unit
(** Record a complete event from explicit timestamps (for span shapes
    that do not nest as a thunk, e.g. worker fork-to-join).  [?ctx]
    stamps the given context's ids as args without consulting the
    ambient context. *)

val after_fork : unit -> unit
(** Prepare a freshly forked child: {!reseed_ids}. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
(** Record a zero-duration instant event (a point-in-time marker),
    stamped with the ambient {!context}'s ids when one is set. *)

val thread_name : tid:int -> string -> unit
(** Metadata event labelling a lane in the viewer. *)

val emit_all : event list -> unit
(** Append foreign (worker) events verbatim (timestamps are kept to the
    nanosecond). *)

val events : unit -> event list
(** Recorded events, in recording order. *)

val clear : unit -> unit
(** Empty the event buffer (e.g. in a freshly forked worker). *)

val drain : unit -> event list
(** {!events} then {!clear}. *)

val json_of_arg : arg -> Json.t
(** An argument as a JSON value; a non-finite [F] prints as [null]. *)

val to_json : event list -> string
(** A Chrome trace-event document: [{"traceEvents": [...], ...}]. *)

val save : string -> unit
(** Write the current buffer as trace JSON plus a trailing newline. *)
