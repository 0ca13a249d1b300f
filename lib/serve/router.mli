(** Request dispatch for the [xenergy serve] daemon.

    A request is one JSON object with an ["op"] field; the router maps
    it to the estimation pipeline and answers with one JSON object that
    always carries ["ok"] (and, on failure, ["error"]).  Supported ops:

    - [ping] — liveness; echoes the daemon pid.
    - [estimate] — [{"op": "estimate", "workloads": ["gcd", ...],
      "config": {...}?, "backend": NAME?}]: energy of each named
      workload under the (optionally overridden) processor
      configuration.  The model comes
      from the {!Registry} (characterize once per configuration), the
      per-workload profiles from the shared {!Core.Eval_cache}
      (simulate once per (workload, configuration)); cache misses are
      fanned out over a persistent {!Core.Parallel} pool.  The response
      marks each row ["cached"] and the whole request
      ["registry_hit"], so a client can see that a warm request ran
      zero simulations.
    - [attribute] — [{"op": "attribute", "workload": NAME,
      "bucket_cycles": N?, "config": {...}?}]: the per-variable energy
      breakdown and power-over-time waveform
      ({!Core.Attribution.to_json}).
    - [profile] — [{"op": "profile", "workload": NAME, "top": N?,
      "config": {...}?}]: per-basic-block hotspot profile
      ({!Core.Profiler.to_json}) against the warm registry model —
      block table, per-opcode histogram, folded flame-graph stacks and
      the conservation gaps.  [top] truncates the block list; omit it
      to get every executed block (what conservation checks need).
    - [audit] — [{"op": "audit", "workloads": [...]?, "config":
      {...}?}]: macro-model vs reference accuracy report
      ({!Core.Audit.to_json}) over the named workloads (default: the
      Table II applications), memoized through the shared cache.
    - [explore] — [{"op": "explore", "space": NAME, "backend": NAME?}]:
      sweep a named candidate space ({!Workloads.Spaces.find}: ["rs"],
      ["rs-cache"], ["mac-widths"]) against the live registry.  Each
      distinct base-core configuration's model comes from the
      {!Registry} (characterized at most once, shared with every other
      op), each candidate's variable vector from the shared
      {!Core.Eval_cache} via {!Core.Explore.evaluate} — a warm sweep
      answers without a single simulation.  The response carries one
      row per candidate (energy, cycles, ["cached"], ["frontier"]
      membership) plus the Pareto ["frontier"] names over the whole
      space and the sweep counters.
    - [metrics] — the live registry as an OpenMetrics text exposition
      ({!Obs.Export.to_openmetrics}) in the ["exposition"] field; this
      is the daemon's [/metrics] endpoint.
    - [stats] — registry/cache/pool counters as JSON, for tests and
      quick inspection.
    - [status] — live introspection for dashboards ([xenergy top]):
      rolling-window RED stats per op (request/error counts and rates,
      p50/p90/p99 estimated from the cumulative
      [serve_request_seconds{op}] histogram buckets via
      {!Obs.Export.quantile}, both over the window and cumulatively),
      per-op inflight counts, registry residency, eval-cache counters,
      pool lane health and connection gauges.  The window (default 60s,
      [create]'s [window_s]) is poller-driven: each [status] request
      pushes a metrics snapshot into a ring pruned to the window and
      diffs against the oldest survivor, so the first call reports
      whole-uptime values and a polling client (e.g. [xenergy top])
      sharpens the window to its own cadence.
    - [shutdown] — acknowledge, then flag the server loop to stop.

    {b Tracing and timings.}  Every request runs under an
    {!Obs.Trace.context}: the optional request fields ["trace_id"] and
    ["parent_span_id"] adopt the client's ids (spans recorded here
    become children of the client's call span); otherwise fresh ids are
    minted.  The response always echoes ["trace_id"].  With tracing
    enabled the router records a [serve:<op>] span plus [phase:*] child
    spans, and the context rides into forked pool workers so item spans
    share the request's trace_id.  A request carrying
    ["timings": true] gets a ["timings"] object back: [total_us] (wall
    time from frame receipt to response construction) and a [phases]
    object (queue/parse/registry/cache/simulate/serialize/other,
    microseconds) that sums to [total_us] exactly — unattributed time
    is reported as [other], never hidden.  Requests slower than
    [create]'s [slow_ms] threshold emit a [serve:slow-request] warn log
    line carrying the op, total, trace_id and the same per-phase
    breakdown, and count in [serve_slow_requests_total{op}].

    [config] objects override {!Sim.Config.default} field-wise; the
    accepted keys are [icache_size_bytes], [icache_ways],
    [icache_line_bytes], [icache_miss_penalty] (same four with
    [dcache_]), [branch_taken_penalty], [window_penalty], [freq_mhz]
    and [max_cycles].  Unknown keys and invalid geometries are request
    errors, never crashes: any per-request failure is caught and
    answered as [{"ok": false, "error": ...}].

    The simulating ops ([estimate], [attribute], [profile], [audit])
    also accept an optional ["backend"] field naming the execution
    substrate ({!Sim.Backend.of_string}: ["interp"], ["threaded"] or
    ["check"]); it defaults to the daemon's process-wide selection
    (the [--backend] flag / [XENERGY_BACKEND]), is applied per request
    via {!Sim.Backend.with_current} — including inside pool workers,
    which receive it with each batch item — and is echoed back in the
    response.  Cache entries are keyed by backend, so answers always
    record what the named substrate actually computed.

    The router is safe under the concurrent {!Server}: the registry
    locks itself (characterization single-flight per config hash), the
    shared evaluation cache's parent-side bookkeeping and the
    persistent pool's batches are serialized internally, and the
    per-request backend override is scoped to the handling thread.
    Requests against different configurations — and any number of warm
    requests — proceed in parallel. *)

type t

val create :
  ?max_models:int ->
  ?jobs:int ->
  ?read_timeout_s:float ->
  ?cache_dir:string ->
  ?characterize:(Sim.Config.t -> Core.Template.model) ->
  ?slow_ms:float ->
  ?window_s:float ->
  unit ->
  t
(** [max_models], [jobs] and [characterize] configure the {!Registry};
    [jobs] also sizes the persistent worker pool and the audit fan-out,
    and [read_timeout_s] is the pool's hung-worker deadline.
    [cache_dir] backs the evaluation cache on disk so profiles survive
    daemon restarts.  [slow_ms] (default: off) is the slow-request log
    threshold in milliseconds; [window_s] (default 60) the [status]
    op's rolling-window width. *)

val registry : t -> Registry.t
(** The router's model registry (e.g. to {!Registry.preload} a model
    loaded from a coefficients file). *)

val eval_cache_key :
  t -> backend:string -> config:Sim.Config.t -> Core.Extract.case -> string
(** The evaluation-cache key of one workload, as [estimate] computes it:
    {!Core.Eval_cache.key}, memoized per (workload name, backend name,
    configuration) in a table bounded by a fixed constant (it starts
    over when full).  Always the same bytes as a fresh
    {!Core.Eval_cache.key}, so caches written by the CLI stay valid.
    Workload names must resolve through {!Workloads.Suite.find}. *)

val handle : ?received:float -> ?parse_s:float -> t -> Obs.Json.t -> Obs.Json.t
(** Dispatch one parsed request.  [received] ([Unix.gettimeofday]
    seconds) is when the server finished reading the request frame —
    the phase breakdown's clock start; [parse_s] is the pre-measured
    JSON parse time, charged to the ["parse"] phase.  Omitting both
    (tests, embedding) starts the clock at dispatch. *)

val handle_text : ?received:float -> t -> string -> string
(** Parse, dispatch and print: what the server calls per frame.  A JSON
    parse failure is answered as an error response. *)

val stopped : t -> bool
(** Has a [shutdown] request been handled? *)

val shutdown : t -> unit
(** Flush the evaluation cache's index and shut the worker pool down
    (reaping every lane).  Idempotent. *)
