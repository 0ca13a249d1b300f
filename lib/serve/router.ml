module J = Obs.Json

module M = struct
  let requests op =
    Obs.Metrics.counter
      ~labels:[ ("op", op) ]
      ~help:"requests handled by the serve router" "serve_requests_total"

  let errors op =
    Obs.Metrics.counter
      ~labels:[ ("op", op) ]
      ~help:"requests answered with an error" "serve_errors_total"

  (* Router requests span six orders of magnitude: a ping or a
     cache-hit estimate answers in tens of microseconds, a cold
     estimate simulates for milliseconds, and a characterization run
     takes whole seconds.  The generic default buckets start at 100ms
     and would collapse everything fast into the first bucket, so spell
     out a latency-shaped ladder. *)
  let request_seconds_buckets =
    [| 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 1e-3; 2.5e-3; 1e-2; 2.5e-2; 0.1;
       0.25; 1.0; 2.5; 10.0 |]

  let request_seconds op =
    Obs.Metrics.histogram
      ~labels:[ ("op", op) ]
      ~help:"request handling wall time" ~buckets:request_seconds_buckets
      "serve_request_seconds"

  let inflight op =
    Obs.Metrics.gauge
      ~labels:[ ("op", op) ]
      ~help:"requests currently being handled" "serve_inflight_requests"

  let slow op =
    Obs.Metrics.counter
      ~labels:[ ("op", op) ]
      ~help:"requests slower than the slow-request threshold"
      "serve_slow_requests_total"
end

type t = {
  r_registry : Registry.t;
  r_cache : Core.Eval_cache.t;
  r_cache_lock : Mutex.t;
  (* The eval cache's in-memory table is not safe under concurrent
     mutation; every parent-side find/store/flush — including whole
     [Core.Audit.run]/[Core.Explore.evaluate] calls, which thread the
     cache through themselves — holds this lock, and so does every use
     of [r_keys].  Simulation inside those calls happens in forked
     workers, so the lock serializes bookkeeping, not compute. *)
  r_keys : (string * string * Sim.Config.t, string) Hashtbl.t;
  (* Memoized [Core.Eval_cache.key] per (workload, backend, config):
     the key marshals and hashes the whole program, which would
     otherwise dominate a warm estimate. *)
  r_pool :
    (string * string * Sim.Config.t, Core.Eval_cache.entry) Core.Parallel.pool;
  r_pool_lock : Mutex.t;
  (* One batch at a time on the persistent pool: its request/response
     pipes are shared state, and the workers are the same processes
     either way — interleaving batches would corrupt framing without
     adding parallelism. *)
  r_state_lock : Mutex.t;        (* r_requests/r_shut/r_snaps/r_inflight *)
  r_jobs : int option;
  r_started : float;
  r_slow_s : float option;       (* slow-request log threshold, seconds *)
  r_window_s : float;            (* status rolling-window width *)
  r_inflight : (string, int ref) Hashtbl.t;
  mutable r_snaps : (float * Obs.Metrics.snapshot) list;
  (* Rolling window of metric snapshots, newest first, pruned to
     [r_window_s] on each [status] request: the window is poller-driven
     (Prometheus-style), so its resolution is the status polling
     cadence, and an idle daemon keeps no background thread. *)
  mutable r_requests : int;
  mutable r_stop : bool;
  mutable r_shut : bool;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- Per-request phase clock ---------------------------------------------- *)

(* Each request carries a phase accumulator: handlers charge wall time
   to named phases (queue, parse, registry, cache, simulate, serialize)
   as they pass through them; [handle] folds the remainder into an
   explicit "other" phase, so the breakdown always sums to the request
   total.  Phases are (name, seconds) in reverse recording order;
   repeated names merge. *)
type phases = { mutable px_phases : (string * float) list }

let phase_order = [ "queue"; "parse"; "registry"; "cache"; "simulate"; "serialize" ]

(* A phase is its breakdown name and its span name, both built once. *)
let ph name = (name, "phase:" ^ name)
let ph_queue = ph "queue"
let ph_registry = ph "registry"
let ph_cache = ph "cache"
let ph_simulate = ph "simulate"
let ph_serialize = ph "serialize"

let phase px (name, span) f =
  Obs.Trace.timed_span ~cat:"serve" span
    (fun s -> px.px_phases <- (name, s) :: px.px_phases)
    f

let merged_phases px =
  let seen = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (n, s) ->
      match Hashtbl.find_opt tbl n with
      | Some cell -> cell := !cell +. s
      | None ->
        Hashtbl.add tbl n (ref s);
        seen := n :: !seen)
    (List.rev px.px_phases);
  let names =
    List.filter (Hashtbl.mem tbl) phase_order
    @ List.filter (fun n -> not (List.mem n phase_order)) (List.rev !seen)
  in
  List.map (fun n -> (n, !(Hashtbl.find tbl n))) names

(* The pool function is fixed at fork time, so it takes everything a
   batch item needs — workload name, simulation backend and
   configuration — as marshal-safe data and resolves the case inside
   the worker.  The backend travels as its name: pool workers are
   long-lived, so the parent's process-wide selection at fork time
   says nothing about the request being served now. *)
let profile_entry (name, backend, config) =
  let b =
    match Sim.Backend.of_string backend with
    | Some b -> b
    | None -> Sim.Backend.Interp
  in
  Sim.Backend.with_current b @@ fun () ->
  let case = Workloads.Suite.find name in
  let p = Core.Extract.profile ~config case in
  { Core.Eval_cache.e_name = name;
    e_variables = p.Core.Extract.variables;
    e_cycles = p.Core.Extract.cycles;
    e_instructions = p.Core.Extract.instructions;
    e_stall_cycles = p.Core.Extract.stall_cycles;
    e_measured_pj = None }

let known_ops =
  [ "ping"; "estimate"; "attribute"; "profile"; "audit"; "explore"; "metrics";
    "stats"; "status"; "shutdown"; "invalid" ]

let create ?max_models ?jobs ?read_timeout_s ?cache_dir ?characterize ?slow_ms
    ?(window_s = 60.0) () =
  (* Register every metric family this router will ever touch now,
     while the process is still single-threaded: the metrics registry's
     own table is then only read (never resized) by concurrent
     connection threads.  Op labels are normalized to [known_ops]
     (arbitrary request strings count as "invalid"), so this set is
     exhaustive. *)
  List.iter
    (fun op ->
      ignore (M.requests op);
      ignore (M.errors op);
      ignore (M.request_seconds op);
      ignore (M.inflight op);
      ignore (M.slow op))
    known_ops;
  let inflight = Hashtbl.create 16 in
  List.iter (fun op -> Hashtbl.add inflight op (ref 0)) known_ops;
  { r_registry = Registry.create ?max_models ?jobs ?characterize ();
    r_cache = Core.Eval_cache.create ?dir:cache_dir ();
    r_cache_lock = Mutex.create ();
    r_keys = Hashtbl.create 64;
    r_pool = Core.Parallel.create_pool ?jobs ?read_timeout_s profile_entry;
    r_pool_lock = Mutex.create ();
    r_state_lock = Mutex.create ();
    r_jobs = jobs;
    r_started = Unix.gettimeofday ();
    r_slow_s = Option.map (fun ms -> ms /. 1e3) slow_ms;
    r_window_s = window_s;
    r_inflight = inflight;
    r_snaps = [];
    r_requests = 0;
    r_stop = false;
    r_shut = false }

let registry t = t.r_registry
let stopped t = t.r_stop

let shutdown t =
  let first =
    locked t.r_state_lock (fun () ->
        let first = not t.r_shut in
        t.r_shut <- true;
        first)
  in
  if first then begin
    locked t.r_cache_lock (fun () -> Core.Eval_cache.flush t.r_cache);
    locked t.r_pool_lock (fun () -> Core.Parallel.shutdown_pool t.r_pool)
  end

(* --- Request plumbing ----------------------------------------------------- *)

let member_opt k = function J.Obj fields -> List.assoc_opt k fields | _ -> None

let str_field ~op k req =
  match member_opt k req with
  | Some (J.Str s) -> s
  | Some _ | None ->
    failwith (Printf.sprintf "%s needs a string %S field" op k)

let find_case name =
  try Workloads.Suite.find name
  with Not_found -> failwith (Printf.sprintf "unknown workload %S" name)

(* Bound on [r_keys]: far above any real working set (workloads x
   backends x configs in use), small enough that a client cycling
   through configurations cannot grow the daemon without limit.  On
   overflow the memo starts over. *)
let max_memo_keys = 4096

(* Caller holds [r_cache_lock]. *)
let cache_key t ~backend ~config (case : Core.Extract.case) =
  let k = (case.Core.Extract.case_name, backend, config) in
  match Hashtbl.find_opt t.r_keys k with
  | Some key -> key
  | None ->
    let key = Core.Eval_cache.key ~backend ~config case in
    if Hashtbl.length t.r_keys >= max_memo_keys then Hashtbl.reset t.r_keys;
    Hashtbl.add t.r_keys k key;
    key

let eval_cache_key t ~backend ~config case =
  locked t.r_cache_lock (fun () -> cache_key t ~backend ~config case)

let workload_list ~op req =
  match member_opt "workloads" req with
  | Some (J.Arr l) ->
    Some
      (List.map
         (function
           | J.Str s -> s
           | _ -> failwith (Printf.sprintf "%s: workloads must be strings" op))
         l)
  | Some (J.Str s) -> Some [ s ]
  | Some _ -> failwith (Printf.sprintf "%s: \"workloads\" must be an array" op)
  | None -> None

module C = Sim.Config

let config_of_json = function
  | J.Null -> C.default
  | J.Obj fields ->
    let int_of k = function
      | J.Num f -> int_of_float f
      | _ -> failwith (Printf.sprintf "config: %S must be a number" k)
    in
    let float_of k = function
      | J.Num f -> f
      | _ -> failwith (Printf.sprintf "config: %S must be a number" k)
    in
    let c =
      List.fold_left
        (fun c (k, v) ->
          match k with
          | "icache_size_bytes" ->
            { c with C.icache = { c.C.icache with C.size_bytes = int_of k v } }
          | "icache_ways" ->
            { c with C.icache = { c.C.icache with C.ways = int_of k v } }
          | "icache_line_bytes" ->
            { c with C.icache = { c.C.icache with C.line_bytes = int_of k v } }
          | "icache_miss_penalty" ->
            { c with
              C.icache = { c.C.icache with C.miss_penalty = int_of k v } }
          | "dcache_size_bytes" ->
            { c with C.dcache = { c.C.dcache with C.size_bytes = int_of k v } }
          | "dcache_ways" ->
            { c with C.dcache = { c.C.dcache with C.ways = int_of k v } }
          | "dcache_line_bytes" ->
            { c with C.dcache = { c.C.dcache with C.line_bytes = int_of k v } }
          | "dcache_miss_penalty" ->
            { c with
              C.dcache = { c.C.dcache with C.miss_penalty = int_of k v } }
          | "branch_taken_penalty" ->
            { c with C.branch_taken_penalty = int_of k v }
          | "window_penalty" -> { c with C.window_penalty = int_of k v }
          | "freq_mhz" -> { c with C.freq_mhz = float_of k v }
          | "max_cycles" -> { c with C.max_cycles = int_of k v }
          | k -> failwith (Printf.sprintf "config: unknown field %S" k))
        C.default fields
    in
    (try C.validate c
     with Invalid_argument msg -> failwith ("config: " ^ msg));
    c
  | _ -> failwith "\"config\" must be an object"

let request_config req =
  config_of_json (Option.value ~default:J.Null (member_opt "config" req))

(* Optional "backend" field: which execution substrate simulates this
   request (default: the daemon's process-wide selection). *)
let request_backend ~op req =
  match member_opt "backend" req with
  | None -> Sim.Backend.current ()
  | Some (J.Str s) -> (
    match Sim.Backend.of_string s with
    | Some b -> b
    | None -> failwith (Printf.sprintf "%s: unknown backend %S" op s))
  | Some _ -> failwith (Printf.sprintf "%s: \"backend\" must be a string" op)

let error_resp msg = J.Obj [ ("ok", J.Bool false); ("error", J.Str msg) ]

(* --- Ops ------------------------------------------------------------------ *)

let handle_estimate t px req =
  let names =
    match workload_list ~op:"estimate" req with
    | Some [] -> failwith "estimate: empty workload list"
    | Some names -> names
    | None -> failwith "estimate needs a \"workloads\" array"
  in
  let config = request_config req in
  let backend = request_backend ~op:"estimate" req in
  let bname = Sim.Backend.name backend in
  (* Resolve every name before simulating anything, so one typo fails
     the request instead of wasting a batch. *)
  let cases = List.map (fun n -> (n, find_case n)) names in
  let lookup =
    phase px ph_registry (fun () -> Registry.get t.r_registry config)
  in
  let model = lookup.Registry.l_model in
  let found =
    phase px ph_cache @@ fun () ->
    locked t.r_cache_lock (fun () ->
        List.map
          (fun (n, case) ->
            let key = cache_key t ~backend:bname ~config case in
            (n, key, Core.Eval_cache.find t.r_cache key))
          cases)
  in
  let missing =
    List.filter_map
      (function n, key, None -> Some (n, key) | _, _, Some _ -> None)
      found
  in
  let computed =
    if missing = [] then []
    else begin
      (* The wait for the shared pool is queueing, not simulation:
         charge the lock acquisition and the batch separately. *)
      phase px ph_queue (fun () -> Mutex.lock t.r_pool_lock);
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.r_pool_lock)
        (fun () ->
          phase px ph_simulate (fun () ->
              Core.Parallel.pool_map t.r_pool
                (List.map (fun (n, _) -> (n, bname, config)) missing)))
    end
  in
  let fresh = Hashtbl.create 8 in
  phase px ph_cache (fun () ->
      locked t.r_cache_lock (fun () ->
          List.iter2
            (fun (n, key) entry ->
              Core.Eval_cache.store t.r_cache key entry;
              Hashtbl.replace fresh n entry)
            missing computed));
  phase px ph_serialize @@ fun () ->
  let row (n, _, cached) =
    let entry, was_cached =
      match cached with
      | Some e -> (e, true)
      | None -> (Hashtbl.find fresh n, false)
    in
    let pj = Core.Template.energy model entry.Core.Eval_cache.e_variables in
    J.Obj
      [ ("name", J.Str n);
        ("energy_pj", J.Num pj);
        ("energy_uj", J.Num (pj *. 1e-6));
        ("cycles", J.Num (float_of_int entry.Core.Eval_cache.e_cycles));
        ( "instructions",
          J.Num (float_of_int entry.Core.Eval_cache.e_instructions) );
        ("cached", J.Bool was_cached) ]
  in
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "estimate");
      ("model_key", J.Str lookup.Registry.l_key);
      ("registry_hit", J.Bool lookup.Registry.l_hit);
      ("backend", J.Str bname);
      ("results", J.Arr (List.map row found)) ]

let handle_attribute t px req =
  let name = str_field ~op:"attribute" "workload" req in
  let bucket =
    match member_opt "bucket_cycles" req with
    | Some (J.Num f) -> int_of_float f
    | None -> 64
    | Some _ -> failwith "attribute: \"bucket_cycles\" must be a number"
  in
  if bucket <= 0 then failwith "attribute: bucket_cycles must be positive";
  let config = request_config req in
  let backend = request_backend ~op:"attribute" req in
  let case = find_case name in
  let lookup =
    phase px ph_registry (fun () -> Registry.get t.r_registry config)
  in
  let b =
    phase px ph_simulate @@ fun () ->
    Sim.Backend.with_current backend @@ fun () ->
    Core.Attribution.run ~config ~bucket_cycles:bucket
      lookup.Registry.l_model case
  in
  phase px ph_serialize @@ fun () ->
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "attribute");
      ("model_key", J.Str lookup.Registry.l_key);
      ("registry_hit", J.Bool lookup.Registry.l_hit);
      ("backend", J.Str (Sim.Backend.name backend));
      ("attribution", Core.Attribution.json b) ]

let handle_profile t px req =
  let name = str_field ~op:"profile" "workload" req in
  let top =
    match member_opt "top" req with
    | Some (J.Num f) -> Some (int_of_float f)
    | None -> None
    | Some _ -> failwith "profile: \"top\" must be a number"
  in
  (match top with
  | Some n when n <= 0 -> failwith "profile: top must be positive"
  | _ -> ());
  let config = request_config req in
  let backend = request_backend ~op:"profile" req in
  let case = find_case name in
  let lookup =
    phase px ph_registry (fun () -> Registry.get t.r_registry config)
  in
  let r =
    phase px ph_simulate @@ fun () ->
    Sim.Backend.with_current backend @@ fun () ->
    Core.Profiler.run ~config lookup.Registry.l_model case
  in
  phase px ph_serialize @@ fun () ->
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "profile");
      ("model_key", J.Str lookup.Registry.l_key);
      ("registry_hit", J.Bool lookup.Registry.l_hit);
      ("backend", J.Str (Sim.Backend.name backend));
      ("profile", Core.Profiler.json ?top r) ]

let handle_audit t px req =
  let cases =
    match workload_list ~op:"audit" req with
    | Some [] -> failwith "audit: empty workload list"
    | Some names -> List.map find_case names
    | None -> Workloads.Suite.applications ()
  in
  let config = request_config req in
  let backend = request_backend ~op:"audit" req in
  let lookup =
    phase px ph_registry (fun () -> Registry.get t.r_registry config)
  in
  let report =
    (* Audit forks its own short-lived workers inside this scope, so
       they inherit the request's backend.  It also threads the shared
       cache through itself, so the whole run holds the cache lock —
       simulation still parallelizes in its forked workers.  The wait
       for that lock is queueing; the run itself is simulation. *)
    phase px ph_queue (fun () -> Mutex.lock t.r_cache_lock);
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.r_cache_lock)
      (fun () ->
        phase px ph_simulate @@ fun () ->
        Sim.Backend.with_current backend @@ fun () ->
        Core.Audit.run ?jobs:t.r_jobs ~cache:t.r_cache ~config
          lookup.Registry.l_model cases)
  in
  (* The op answers with the summary statistics at the committed
     baseline's resolution (a millionth of a percent), so a client can
     hold an audit against BENCH_accuracy.json with exact equality. *)
  let micro x = Float.round (x *. 1e6) /. 1e6 in
  let report =
    { report with
      Core.Audit.a_mean_abs = micro report.Core.Audit.a_mean_abs;
      a_max_abs = micro report.Core.Audit.a_max_abs;
      a_rms = micro report.Core.Audit.a_rms }
  in
  phase px ph_serialize @@ fun () ->
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "audit");
      ("model_key", J.Str lookup.Registry.l_key);
      ("registry_hit", J.Bool lookup.Registry.l_hit);
      ("backend", J.Str (Sim.Backend.name backend));
      ("audit", Core.Audit.json report) ]

(* Sweep a named candidate space against the live registry: each
   distinct base-core configuration's model comes from {!Registry.get}
   (characterized at most once, single-flight, LRU-touched like any
   other request), each candidate's variable vector from the shared
   eval cache via {!Core.Explore.evaluate} — a warm sweep runs zero
   simulations.  The Pareto frontier is computed over the union of all
   configuration groups, exactly as [xenergy explore] would over the
   same space. *)
let handle_explore t px req =
  let space = str_field ~op:"explore" "space" req in
  let gen =
    match Workloads.Spaces.find space with
    | Some g -> g
    | None ->
      failwith
        (Printf.sprintf "explore: unknown space %S (one of: %s)" space
           (String.concat ", " Workloads.Spaces.names))
  in
  let backend = request_backend ~op:"explore" req in
  let candidates = gen () in
  let t0 = Unix.gettimeofday () in
  (* Group candidates by configuration hash, preserving first-seen
     group order and in-group candidate order. *)
  let groups = ref [] in
  List.iter
    (fun (c : Core.Explore.candidate) ->
      let key = Registry.key_of_config c.Core.Explore.config in
      match List.assoc_opt key !groups with
      | Some cell -> cell := c :: !cell
      | None -> groups := !groups @ [ (key, ref [ c ]) ])
    candidates;
  let registry_hits = ref 0 in
  let outcomes =
    List.map
      (fun (_, cell) ->
        let cs = List.rev !cell in
        let config = (List.hd cs).Core.Explore.config in
        let lookup =
          phase px ph_registry (fun () -> Registry.get t.r_registry config)
        in
        if lookup.Registry.l_hit then incr registry_hits;
        phase px ph_simulate @@ fun () ->
        locked t.r_cache_lock @@ fun () ->
        Sim.Backend.with_current backend @@ fun () ->
        Core.Explore.evaluate ?jobs:t.r_jobs ~cache:t.r_cache
          lookup.Registry.l_model cs)
      !groups
  in
  phase px ph_serialize @@ fun () ->
  let points = List.concat_map (fun o -> o.Core.Explore.points) outcomes in
  (* Back to the space's candidate order, then one frontier over the
     whole space (per-group frontiers would miss cross-config
     domination). *)
  let points =
    List.map
      (fun (c : Core.Explore.candidate) ->
        List.find
          (fun (p : Core.Explore.point) ->
            p.Core.Explore.pt_name = c.Core.Explore.cand_name)
          points)
      candidates
  in
  let frontier = Core.Explore.pareto points in
  let on_frontier name =
    List.exists (fun (p : Core.Explore.point) -> p.Core.Explore.pt_name = name)
      frontier
  in
  let row (p : Core.Explore.point) =
    J.Obj
      [ ("name", J.Str p.Core.Explore.pt_name);
        ("energy_pj", J.Num p.Core.Explore.pt_energy_pj);
        ("energy_uj", J.Num p.Core.Explore.pt_energy_uj);
        ("cycles", J.Num (float_of_int p.Core.Explore.pt_cycles));
        ( "instructions",
          J.Num (float_of_int p.Core.Explore.pt_instructions) );
        ("cached", J.Bool p.Core.Explore.pt_cached);
        ("frontier", J.Bool (on_frontier p.Core.Explore.pt_name)) ]
  in
  let simulations =
    List.fold_left (fun a o -> a + o.Core.Explore.simulations) 0 outcomes
  in
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "explore");
      ("space", J.Str space);
      ("backend", J.Str (Sim.Backend.name backend));
      ("candidates", J.Num (float_of_int (List.length candidates)));
      ("configs", J.Num (float_of_int (List.length !groups)));
      ("registry_hits", J.Num (float_of_int !registry_hits));
      ("simulations", J.Num (float_of_int simulations));
      ("wall_seconds", J.Num (Unix.gettimeofday () -. t0));
      ("points", J.Arr (List.map row points));
      ( "frontier",
        J.Arr
          (List.map
             (fun (p : Core.Explore.point) -> J.Str p.Core.Explore.pt_name)
             frontier) ) ]

let handle_stats t =
  let rs = Registry.stats t.r_registry in
  let cs = Core.Eval_cache.stats t.r_cache in
  let num n = J.Num (float_of_int n) in
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "stats");
      ("pid", num (Unix.getpid ()));
      ("uptime_s", J.Num (Unix.gettimeofday () -. t.r_started));
      ("requests", num t.r_requests);
      ("backend", J.Str (Sim.Backend.name (Sim.Backend.current ())));
      ("registry_models", num rs.Registry.r_models);
      ("registry_hits", num rs.Registry.r_hits);
      ("registry_misses", num rs.Registry.r_misses);
      ("registry_evictions", num rs.Registry.r_evictions);
      ("cache_hits", num cs.Core.Eval_cache.hits);
      ("cache_misses", num cs.Core.Eval_cache.misses);
      ("cache_errors", num cs.Core.Eval_cache.errors);
      ("cache_stores", num cs.Core.Eval_cache.stores);
      ("pool_live", num (Core.Parallel.pool_live t.r_pool)) ]

(* --- status: rolling-window RED stats ------------------------------------- *)

let snap_find snap name labels =
  let want = List.sort compare labels in
  List.find_opt
    (fun (n, ls, _, _) -> n = name && List.sort compare ls = want)
    snap

let snap_counter snap name labels =
  match snap_find snap name labels with
  | Some (_, _, _, Obs.Metrics.S_counter c) -> c
  | _ -> 0

let snap_gauge snap name labels =
  match snap_find snap name labels with
  | Some (_, _, _, Obs.Metrics.S_gauge v) -> v
  | _ -> 0.0

let handle_status t =
  let now = Unix.gettimeofday () in
  let snap = Obs.Metrics.snapshot () in
  (* Push this capture into the window ring and diff against the oldest
     survivor; before the window has history, the delta degenerates to
     the cumulative values over the whole uptime. *)
  let base =
    locked t.r_state_lock (fun () ->
        let keep =
          List.filter (fun (ts, _) -> now -. ts <= t.r_window_s) t.r_snaps
        in
        let base =
          match List.rev keep with [] -> None | oldest :: _ -> Some oldest
        in
        t.r_snaps <- (now, snap) :: keep;
        base)
  in
  let window_dt, delta =
    match base with
    | Some (ts, s) -> (now -. ts, Obs.Metrics.snapshot_diff snap s)
    | None -> (now -. t.r_started, snap)
  in
  let window_dt = Float.max window_dt 1e-9 in
  let num n = J.Num (float_of_int n) in
  let ms = function Some s -> J.Num (s *. 1e3) | None -> J.Null in
  let quant s ~labels p =
    Obs.Export.snapshot_quantile s ~name:"serve_request_seconds" ~labels p
  in
  let op_row op =
    let l = [ ("op", op) ] in
    let cum_req = snap_counter snap "serve_requests_total" l in
    if cum_req = 0 then None
    else
      let inflight =
        locked t.r_state_lock (fun () ->
            match Hashtbl.find_opt t.r_inflight op with
            | Some c -> !c
            | None -> 0)
      in
      let w_req = snap_counter delta "serve_requests_total" l in
      let w_err = snap_counter delta "serve_errors_total" l in
      Some
        (J.Obj
           [ ("op", J.Str op);
             ("requests", num cum_req);
             ("errors", num (snap_counter snap "serve_errors_total" l));
             ("slow", num (snap_counter snap "serve_slow_requests_total" l));
             ("inflight", num inflight);
             ( "window",
               J.Obj
                 [ ("requests", num w_req);
                   ("errors", num w_err);
                   ("rate_hz", J.Num (float_of_int w_req /. window_dt));
                   ( "error_rate_hz",
                     J.Num (float_of_int w_err /. window_dt) );
                   ("p50_ms", ms (quant delta ~labels:l 0.5));
                   ("p90_ms", ms (quant delta ~labels:l 0.9));
                   ("p99_ms", ms (quant delta ~labels:l 0.99)) ] );
             ( "cumulative",
               J.Obj
                 [ ("p50_ms", ms (quant snap ~labels:l 0.5));
                   ("p90_ms", ms (quant snap ~labels:l 0.9));
                   ("p99_ms", ms (quant snap ~labels:l 0.99)) ] ) ])
  in
  let rs = Registry.stats t.r_registry in
  let cs = Core.Eval_cache.stats t.r_cache in
  let requests, inflight_total =
    locked t.r_state_lock (fun () ->
        ( t.r_requests,
          Hashtbl.fold (fun _ c acc -> acc + !c) t.r_inflight 0 ))
  in
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "status");
      ("pid", num (Unix.getpid ()));
      ("uptime_s", J.Num (now -. t.r_started));
      ("backend", J.Str (Sim.Backend.name (Sim.Backend.current ())));
      ("requests", num requests);
      ("inflight", num inflight_total);
      ("window_s", J.Num t.r_window_s);
      ("window_dt_s", J.Num window_dt);
      ("ops", J.Arr (List.filter_map op_row known_ops));
      ( "registry",
        J.Obj
          [ ("models", num rs.Registry.r_models);
            ("hits", num rs.Registry.r_hits);
            ("misses", num rs.Registry.r_misses);
            ("evictions", num rs.Registry.r_evictions) ] );
      ( "cache",
        J.Obj
          [ ("hits", num cs.Core.Eval_cache.hits);
            ("misses", num cs.Core.Eval_cache.misses);
            ("errors", num cs.Core.Eval_cache.errors);
            ("stores", num cs.Core.Eval_cache.stores) ] );
      ( "pool",
        J.Obj
          [ ("live", num (Core.Parallel.pool_live t.r_pool));
            ( "lanes",
              num
                (match t.r_jobs with
                | Some j -> max 1 j
                | None -> Core.Parallel.default_jobs ()) ) ] );
      ( "connections",
        J.Obj
          [ ("active", J.Num (snap_gauge snap "serve_active_connections" []));
            ( "total",
              num (snap_counter snap "serve_connections_total" []) ) ] ) ]

let dispatch t px op req =
  match op with
  | "ping" ->
    J.Obj
      [ ("ok", J.Bool true);
        ("op", J.Str "ping");
        ("pid", J.Num (float_of_int (Unix.getpid ()))) ]
  | "estimate" -> handle_estimate t px req
  | "attribute" -> handle_attribute t px req
  | "profile" -> handle_profile t px req
  | "audit" -> handle_audit t px req
  | "explore" -> handle_explore t px req
  | "metrics" ->
    phase px ph_serialize (fun () ->
        J.Obj
          [ ("ok", J.Bool true);
            ("op", J.Str "metrics");
            ("exposition", J.Str (Obs.Export.to_openmetrics ())) ])
  | "stats" -> handle_stats t
  | "status" -> handle_status t
  | "shutdown" ->
    t.r_stop <- true;
    J.Obj [ ("ok", J.Bool true); ("op", J.Str "shutdown") ]
  | "" -> failwith "request needs a string \"op\" field"
  | op -> failwith (Printf.sprintf "unknown op %S" op)

(* The request's trace context: adopt the client's ids when it sent
   any (its [parent_span_id] becomes the parent of every server span),
   mint a fresh trace otherwise.  Either way the response echoes the
   trace_id, so a client can find its request in an exported trace. *)
let request_context req =
  match member_opt "trace_id" req with
  | Some (J.Str tid) when tid <> "" ->
    let span =
      match member_opt "parent_span_id" req with
      | Some (J.Str s) when s <> "" -> s
      | _ -> Obs.Trace.new_id ()
    in
    { Obs.Trace.trace_id = tid; span_id = span; parent_id = None }
  | _ ->
    { Obs.Trace.trace_id = Obs.Trace.new_id ();
      span_id = Obs.Trace.new_id ();
      parent_id = None }

let inflight_adjust t op d =
  locked t.r_state_lock (fun () ->
      let cell =
        match Hashtbl.find_opt t.r_inflight op with
        | Some c -> c
        | None ->
          let c = ref 0 in
          Hashtbl.add t.r_inflight op c;
          c
      in
      cell := !cell + d;
      Obs.Metrics.set (M.inflight op) (float_of_int !cell))

let handle ?received ?parse_s t req =
  locked t.r_state_lock (fun () -> t.r_requests <- t.r_requests + 1);
  let t0 = Unix.gettimeofday () in
  (* The request clock starts when the server finished reading the
     frame ([received]); the gap to now is time spent queued behind
     this connection thread's other work plus the JSON parse, which
     the server pre-measured ([parse_s]). *)
  let t_start = Option.value received ~default:t0 in
  let op =
    match member_opt "op" req with Some (J.Str s) -> s | Some _ | None -> ""
  in
  (* Metric labels are normalized to the known-op set so a stream of
     garbage op names cannot grow label cardinality without bound. *)
  let opl = if List.mem op known_ops then op else "invalid" in
  Obs.Metrics.inc (M.requests opl);
  inflight_adjust t opl 1;
  let px = { px_phases = [] } in
  (match received with
  | Some r -> px.px_phases <- [ ("queue", Float.max 0.0 (t0 -. r -. Option.value parse_s ~default:0.0)) ]
  | None -> ());
  (match parse_s with
  | Some s -> px.px_phases <- ("parse", s) :: px.px_phases
  | None -> ());
  let ctx = request_context req in
  let want_timings =
    match member_opt "timings" req with Some (J.Bool b) -> b | _ -> false
  in
  let resp =
    Fun.protect ~finally:(fun () -> inflight_adjust t opl (-1)) @@ fun () ->
    Obs.Trace.with_context ctx @@ fun () ->
    Obs.Trace.with_span ~cat:"serve"
      ~args:[ ("op", Obs.Trace.S opl) ]
      ("serve:" ^ opl)
    @@ fun () ->
    match dispatch t px op req with
    | resp -> resp
    | exception e ->
      (* A bad request — or a genuinely failing pipeline stage — must
         answer this client, not take the daemon down. *)
      let msg =
        match e with
        | Failure msg | Invalid_argument msg -> msg
        | J.Parse_error msg -> "invalid JSON: " ^ msg
        | e -> Printexc.to_string e
      in
      Obs.Metrics.inc (M.errors opl);
      Obs.Log.event ~level:Obs.Log.Warn "serve:error"
        [ ("op", Obs.Trace.S op); ("error", Obs.Trace.S msg) ];
      error_resp msg
  in
  let t_end = Unix.gettimeofday () in
  let dt = t_end -. t0 in
  let total = t_end -. t_start in
  Obs.Metrics.observe (M.request_seconds opl) dt;
  (* The breakdown's phases sum to [total] exactly: whatever the named
     phases did not account for is reported honestly as "other". *)
  let phases =
    lazy
      (let named = merged_phases px in
       let accounted = List.fold_left (fun a (_, s) -> a +. s) 0.0 named in
       named @ [ ("other", Float.max 0.0 (total -. accounted)) ])
  in
  (* Log fields are built only when a sink will take them: on the warm
     path the lists would cost a measurable share of the request. *)
  let logging = Obs.Log.enabled () in
  (match t.r_slow_s with
  | Some thr when total >= thr ->
    Obs.Metrics.inc (M.slow opl);
    if logging then
      Obs.Log.event ~level:Obs.Log.Warn "serve:slow-request"
        (( ("op", Obs.Trace.S op)
         :: ("total_ms", Obs.Trace.F (total *. 1e3))
         :: ("trace_id", Obs.Trace.S ctx.Obs.Trace.trace_id)
         :: List.map
              (fun (n, s) -> ("phase_" ^ n ^ "_ms", Obs.Trace.F (s *. 1e3)))
              (Lazy.force phases) ))
  | _ -> ());
  if logging then begin
    let ok =
      match resp with J.Obj (("ok", J.Bool b) :: _) -> b | _ -> false
    in
    Obs.Log.event "serve:request"
      [ ("op", Obs.Trace.S op);
        ("ok", Obs.Trace.B ok);
        ("seconds", Obs.Trace.F dt) ]
  end;
  let extra =
    ("trace_id", J.Str ctx.Obs.Trace.trace_id)
    ::
    (if want_timings then
       [ ( "timings",
           J.Obj
             [ ("total_us", J.Num (total *. 1e6));
               ( "phases",
                 J.Obj
                   (List.map
                      (fun (n, s) -> (n, J.Num (s *. 1e6)))
                      (Lazy.force phases)) )
             ] ) ]
     else [])
  in
  match resp with J.Obj fields -> J.Obj (fields @ extra) | other -> other

let handle_text ?received t payload =
  let tp = Unix.gettimeofday () in
  match J.parse payload with
  | req ->
    let parse_s = Unix.gettimeofday () -. tp in
    J.to_string (handle ?received ~parse_s t req)
  | exception J.Parse_error msg ->
    Obs.Metrics.inc (M.errors "invalid");
    Obs.Log.event ~level:Obs.Log.Warn "serve:error"
      [ ("op", Obs.Trace.S "parse"); ("error", Obs.Trace.S msg) ];
    J.to_string (error_resp ("invalid JSON: " ^ msg))
