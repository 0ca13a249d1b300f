(* The xenergy benchmark harness.

   One run drives one workload through xenergy's public entry points —
   the [xenergy serve] daemon over its Unix socket, or the [xenergy]
   CLI — checks every answer against an in-process library oracle, and
   prints its metrics.  With [--trace 0] it prints the end-to-end
   metrics; with [--trace 1] it reruns the same traffic with the
   daemon's per-request phase timings switched on and times the public
   functions of each layer on the workload's own inputs.  See
   README.md next to this file for what each metric measures and which
   layer metric should move which end-to-end metric.

   Usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
            --exe PATH [--smoke] [--fail-at setup|load]

   Output: human-readable lines, then one context line, then as the
   very last line of stdout one JSON object with the keys [correct],
   [attempted], [failed] and [metrics].  Exit code 0 only when every
   answer was correct. *)

module J = Obs.Json

let now = Measure.now
let run_dir = ".perfbench-run"
let schema = "xenergy-perfbench/1"

(* The audit accuracy of a freshly characterized model, as committed in
   BENCH_accuracy.json: the paper invariant every benchmark number
   rests on. *)
let audit_mean_pct = 2.947134
let audit_max_pct = 6.069787

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  smoke : bool;
  fail_at : string option;
}

let workloads = [ "daemon-warm"; "daemon-cold"; "explore-cold" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload daemon-warm|daemon-cold|explore-cold \
     --seed N --seconds S --trace 0|1 --exe PATH [--smoke] [--fail-at STAGE]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and exe = ref "" and smoke = ref false
  and fail_at = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--exe" :: v :: rest -> exe := v; go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | "--fail-at" :: v :: rest -> fail_at := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && !exe <> "" && seconds > 0.0 ->
    { workload = !workload; seed; seconds; trace; exe = !exe; smoke = !smoke;
      fail_at = !fail_at }
  | _ -> usage ()

let maybe_fail args stage =
  if args.fail_at = Some stage then
    failwith (Printf.sprintf "injected failure at %s (self-test)" stage)

(* Client connections and the daemons' [-j]: at most two, never more
   than the host's processors. *)
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* --- Small helpers -------------------------------------------------------- *)

let field k = function
  | J.Obj fs -> List.assoc_opt k fs
  | _ -> None

let num_field k j =
  match field k j with Some (J.Num f) -> f | _ -> failwith ("missing number " ^ k)

let int_field k j = int_of_float (num_field k j)

let is_ok j = field "ok" j = Some (J.Bool true)

let describe_error j =
  match field "error" j with
  | Some (J.Str e) -> e
  | _ ->
    let text = Serve.Protocol.json_to_string j in
    String.sub text 0 (min 200 (String.length text))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d = Printf.sprintf "%s/%s%d" run_dir prefix !n in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let names = Array.of_list (Workloads.Suite.names ())

let config_8k =
  let d = Sim.Config.default in
  { d with Sim.Config.icache = { d.Sim.Config.icache with Sim.Config.size_bytes = 8192 } }

(* --- Oracle --------------------------------------------------------------- *)

type expect = {
  x_energy : float;
  x_cycles : int;
  x_instrs : int;
  x_vars : float array;
}

(* [Core.Estimate.run] for every case, fanned over forked workers. *)
let oracle_estimates ~model ~config cases =
  let rows =
    Core.Parallel.map ~jobs
      (fun (c : Core.Extract.case) ->
        let r = Core.Estimate.run ~config model c in
        ( c.Core.Extract.case_name,
          { x_energy = r.Core.Estimate.energy_pj;
            x_cycles = r.Core.Estimate.cycles;
            x_instrs = r.Core.Estimate.instructions;
            x_vars = r.Core.Estimate.profile.Core.Extract.variables } ))
      cases
  in
  let t = Hashtbl.create 64 in
  List.iter (fun (n, x) -> Hashtbl.replace t n x) rows;
  t

let characterize config =
  (Core.Characterize.run ~jobs ~config (Workloads.Suite.characterization ()))
    .Core.Characterize.model

(* Check an estimate response row by row: energy, cycles and
   instructions bit for bit, the expected [cached] flag, a registry
   hit.  [Ok instructions] summed over the rows. *)
let check_estimate ~expect ~cached ~registry_hit names resp =
  if not (is_ok resp) then Error ("estimate refused: " ^ describe_error resp)
  else if field "registry_hit" resp <> Some (J.Bool registry_hit) then
    Error "unexpected registry_hit"
  else
    match field "results" resp with
    | Some (J.Arr rows) when List.length rows = List.length names -> (
      try
        Ok
          (List.fold_left2
             (fun acc name row ->
               let x = Hashtbl.find expect name in
               if field "name" row <> Some (J.Str name) then failwith ("row order at " ^ name);
               if not (Float.equal (num_field "energy_pj" row) x.x_energy) then
                 failwith ("energy of " ^ name);
               if int_field "cycles" row <> x.x_cycles then failwith ("cycles of " ^ name);
               if int_field "instructions" row <> x.x_instrs then
                 failwith ("instructions of " ^ name);
               if field "cached" row <> Some (J.Bool cached) then
                 failwith ("cached flag of " ^ name);
               acc + x.x_instrs)
             0 names rows)
      with
      | Failure msg -> Error ("wrong answer: " ^ msg)
      | Not_found -> Error "a row names no expected workload")
    | _ -> Error "wrong number of result rows"

(* --- Daemons -------------------------------------------------------------- *)

type daemon = { pid : int; socket : string; log : string }

let daemon_seq = ref 0

let call ?(timeout_s = 120.0) s req = Serve.Client.session_call ~timeout_s s req

let ping_ok s =
  try is_ok (call ~timeout_s:5.0 s (J.Obj [ ("op", J.Str "ping") ])) with _ -> false

let tail_log d =
  match Proc.read_file d.log with
  | Some text ->
    let n = String.length text in
    String.sub text (max 0 (n - 2000)) (min n 2000)
  | None -> ""

(* Spawn a daemon and wait until it answers a ping; the daemon and the
   spawn-to-ready seconds.  Polls every 0.5 ms ([Serve.Client.wait_ready]
   sleeps 50 ms between tries, too coarse to time a start-up). *)
let start_daemon ~exe extra =
  incr daemon_seq;
  let socket = Printf.sprintf "%s/d%d.sock" run_dir !daemon_seq in
  let log = Printf.sprintf "%s/d%d.log" run_dir !daemon_seq in
  let t0 = now () in
  let pid =
    Proc.spawn ~stdout:log ~stderr:log
      (Array.of_list
         ([ exe; "serve"; "--socket"; socket; "-j"; string_of_int jobs ] @ extra))
  in
  let d = { pid; socket; log } in
  let deadline = t0 +. 60.0 in
  let rec wait () =
    let ready =
      try Serve.Client.with_session ~socket ping_ok with Unix.Unix_error _ -> false
    in
    if not ready then begin
      if not (Proc.alive pid) then
        failwith ("daemon exited during start-up:\n" ^ tail_log d);
      if now () > deadline then failwith "daemon not ready after 60 s";
      Unix.sleepf 0.0005;
      wait ()
    end
  in
  wait ();
  (d, now () -. t0)

(* Ask for shutdown (the daemon reaps its pool lanes), then make sure:
   SIGKILL the whole group if it has not exited within 10 s. *)
let stop_daemon d =
  (try
     ignore
       (Serve.Client.call ~timeout_s:5.0 ~socket:d.socket
          (J.Obj [ ("op", J.Str "shutdown") ]))
   with _ -> ());
  match Proc.wait_until ~deadline:(now () +. 10.0) d.pid with
  | Some _ -> Proc.kill_group d.pid
  | None -> Proc.kill_and_reap d.pid

let with_session d f = Serve.Client.with_session ~socket:d.socket f

type stats = {
  cache_hits : int;
  cache_misses : int;
  cache_stores : int;
  registry_hits : int;
  registry_misses : int;
  backend : string;
}

let daemon_stats d =
  with_session d @@ fun s ->
  let r = call s (J.Obj [ ("op", J.Str "stats") ]) in
  if not (is_ok r) then failwith "stats refused";
  { cache_hits = int_field "cache_hits" r;
    cache_misses = int_field "cache_misses" r;
    cache_stores = int_field "cache_stores" r;
    registry_hits = int_field "registry_hits" r;
    registry_misses = int_field "registry_misses" r;
    backend = (match field "backend" r with Some (J.Str b) -> b | _ -> "?") }

let stats_map2 f a b =
  { a with
    cache_hits = f a.cache_hits b.cache_hits;
    cache_misses = f a.cache_misses b.cache_misses;
    cache_stores = f a.cache_stores b.cache_stores;
    registry_hits = f a.registry_hits b.registry_hits;
    registry_misses = f a.registry_misses b.registry_misses }

let zero_stats =
  { cache_hits = 0; cache_misses = 0; cache_stores = 0; registry_hits = 0;
    registry_misses = 0; backend = "?" }

(* Median round-trip of [ping] on one session: the transport floor. *)
let ping_rtt_s ~n d =
  with_session d @@ fun s ->
  Measure.median
    (List.init n (fun _ ->
         Measure.time (fun () ->
             if not (ping_ok s) then failwith "ping refused")))

(* --- Closed-loop clients -------------------------------------------------- *)

type sample = {
  lat : float;                        (* seconds, client-observed *)
  traced : bool;                      (* the request asked for timings *)
  phases : (string * float) list;     (* router phases, seconds *)
  instrs : int;                       (* instructions over the rows *)
}

type load = {
  samples : sample list;
  failures : string list;
  kept : J.t list;                    (* responses kept for the JSON layer *)
}

let phases_of resp =
  match field "timings" resp with
  | Some t -> (
    match field "phases" t with
    | Some (J.Obj ps) ->
      List.map (fun (k, v) -> (k, (match v with J.Num f -> f /. 1e6 | _ -> 0.0))) ps
    | _ -> [])
  | None -> []

(* [clients] threads, one session each, closed loop: a client sends its
   next request only when the previous answer is in.  [next c] is
   client [c]'s next request (with its traced flag and the names it
   estimates), or [None] when the client is done; [check] validates a
   response, returning the instructions it covers. *)
let drive ~socket ~clients ~keep_every ~next ~check =
  let run c () =
    let samples = ref [] and failures = ref [] and kept = ref [] and k = ref 0 in
    let session = ref (Serve.Client.connect ~socket) in
    let rec loop () =
      match next c with
      | None -> ()
      | Some (req, traced, ctx) ->
        let t0 = now () in
        let outcome = try Ok (call !session req) with e -> Error (Printexc.to_string e) in
        let lat = now () -. t0 in
        (match outcome with
         | Ok resp -> (
           match check ctx resp with
           | Ok instrs ->
             samples := { lat; traced; phases = (if traced then phases_of resp else []); instrs }
                        :: !samples;
             incr k;
             if keep_every > 0 && !k mod keep_every = 1 then kept := resp :: !kept
           | Error msg -> failures := msg :: !failures)
         | Error msg ->
           failures := ("transport: " ^ msg) :: !failures;
           Serve.Client.close !session;
           session := Serve.Client.connect ~socket);
        loop ()
    in
    Fun.protect ~finally:(fun () -> Serve.Client.close !session) loop;
    { samples = !samples; failures = !failures; kept = !kept }
  in
  let results = Array.make clients { samples = []; failures = []; kept = [] } in
  let threads =
    List.init clients (fun c ->
        Thread.create (fun () ->
            results.(c) <-
              (try run c ()
               with e ->
                 { samples = []; failures = [ "client: " ^ Printexc.to_string e ]; kept = [] }))
          ())
  in
  List.iter Thread.join threads;
  Array.fold_left
    (fun acc r ->
      { samples = r.samples @ acc.samples;
        failures = r.failures @ acc.failures;
        kept = r.kept @ acc.kept })
    { samples = []; failures = []; kept = [] }
    results

(* --- Results ---------------------------------------------------------------- *)

(* What a workload run hands to the reporting code. *)
type outcome = {
  attempted : int;
  failed : int;
  failures : string list;
  e2e : (string * float * string * string) list;   (* name, value, unit, note *)
  layers : (string * float * string) list;         (* traced runs only *)
  backend : string;
  stream_digest : string;
}

let latency_metrics ~what lats =
  let n = List.length lats in
  [ ("latency_p50_ms", 1e3 *. Measure.median lats, "ms",
     Printf.sprintf "median of %d %s" n what);
    ("latency_p99_ms", 1e3 *. Measure.quantile 0.99 lats, "ms",
     Printf.sprintf "nearest-rank p99 of %d %s (%d beyond it)" n what
       (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))) ]

(* Where a traced request's time goes, as shares of the mean
   client-observed latency of the traced requests: the router's phases
   (a phase a workload never enters is a share of 0, not a constant
   time), the transport floor, and what neither accounts for.  Means,
   not medians, so the shares add up.  The named phases exclude
   "other", the router's own unattributed remainder. *)
let router_layers ~samples ~ping_rtt =
  let traced = List.filter (fun s -> s.traced) samples in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let phase p =
    Measure.mean
      (List.map (fun s -> Option.value ~default:0.0 (List.assoc_opt p s.phases)) traced)
  in
  let named = [ "queue"; "parse"; "registry"; "cache"; "simulate"; "serialize" ] in
  let lat = Measure.mean (List.map (fun s -> s.lat) traced) in
  let total = List.fold_left (fun a p -> a +. phase p) 0.0 (named @ [ "other" ]) in
  let attributed = List.fold_left (fun a p -> a +. phase p) ping_rtt named in
  let p50 l = Measure.median (List.map (fun s -> s.lat) l) in
  List.map (fun p -> ("router." ^ p ^ "_frac", phase p /. lat, "ratio")) (named @ [ "other" ])
  @ [ ("router.total_us", 1e6 *. total, "us");
      ("client.ping_rtt_us", 1e6 *. ping_rtt, "us");
      ("unattributed_frac", 1.0 -. (attributed /. lat), "ratio");
      ( "trace_overhead_frac",
        (if untraced = [] then 0.0 else (p50 traced /. p50 untraced) -. 1.0),
        "ratio" ) ]

(* --- Per-layer timings on the workload's inputs ----------------------------- *)

type mix = {
  m_items : (Core.Extract.case * Sim.Config.t * expect) list;
      (** in traffic order, with repetition *)
  m_distinct : (Core.Extract.case * Sim.Config.t * expect) list;
  m_models : (Sim.Config.t * Core.Template.model) list;
  m_responses : J.t list;
}

let backend_name () = Sim.Backend.name (Sim.Backend.current ())

(* Median spawn-to-exit time of [xenergy --version]: the fixed start-up
   every CLI invocation pays. *)
let cli_start_s ~n exe =
  Measure.median
    (List.init n (fun _ ->
         let t0 = now () in
         let pid = Proc.spawn ~stdout:"/dev/null" ~stderr:"/dev/null" [| exe; "--version" |] in
         (match Proc.wait pid with
          | Unix.WEXITED 0 -> ()
          | _ -> failwith "xenergy --version failed");
         now () -. t0))

let layer_timings args mix =
  let reps = if args.smoke then 1 else 5 in
  let items = mix.m_items in
  let names_of = List.map (fun (c, _, _) -> c.Core.Extract.case_name) items in
  let find_us = Measure.per_item ~reps:(if args.smoke then 1 else 3) Workloads.Suite.find names_of in
  let bname = backend_name () in
  let key (c, config, _) = Core.Eval_cache.key ~backend:bname ~config c in
  let keys = List.map key items in
  let key_us = Measure.per_item ~reps key items in
  let entry (c, _, x) =
    { Core.Eval_cache.e_name = c.Core.Extract.case_name;
      e_variables = x.x_vars;
      e_cycles = x.x_cycles;
      e_instructions = x.x_instrs;
      e_stall_cycles = 0;
      e_measured_pj = None }
  in
  let pairs = List.combine keys (List.map entry items) in
  let mem = Core.Eval_cache.create () in
  let store_us =
    Measure.per_item ~reps (fun (k, e) -> Core.Eval_cache.store mem k e) pairs
  in
  let find_cache_us = Measure.per_item ~reps (fun k -> Core.Eval_cache.find mem k) keys in
  let store_disk_us =
    Measure.median
      (List.init (if args.smoke then 1 else 3) (fun _ ->
           let disk = Core.Eval_cache.create ~dir:(fresh_dir "store") () in
           Measure.time (fun () ->
               List.iter (fun (k, e) -> Core.Eval_cache.store disk k e) pairs)
           /. float_of_int (List.length pairs)))
  in
  let registry =
    Serve.Registry.create ~max_models:8
      ~characterize:(fun _ -> failwith "the benchmark registry never characterizes") ()
  in
  List.iter (fun (cfg, m) -> Serve.Registry.preload registry cfg m) mix.m_models;
  let get_us =
    Measure.per_item ~reps (fun (_, cfg, _) -> Serve.Registry.get registry cfg) items
  in
  let model_of cfg = List.assoc cfg mix.m_models in
  let energy_ns =
    Measure.per_item ~reps
      (fun (m, v) -> Core.Template.energy m v)
      (List.map (fun (_, cfg, x) -> (model_of cfg, x.x_vars)) items)
  in
  let instrs = List.fold_left (fun a (_, _, x) -> a + x.x_instrs) 0 mix.m_distinct in
  let pass f =
    Measure.median
      (List.init (if args.smoke then 1 else 3) (fun _ ->
           Measure.time (fun () -> List.iter f mix.m_distinct)))
    /. float_of_int instrs
  in
  let sim_s =
    pass (fun (c, config, _) ->
        ignore
          (Sim.Backend.run_program ~config ?extension:c.Core.Extract.extension
             c.Core.Extract.asm))
  in
  let extract_s = pass (fun (c, config, _) -> ignore (Core.Extract.profile ~config c)) in
  let pool = Core.Parallel.create_pool ~jobs (fun (x : int) -> x + 1) in
  let pool_map_us =
    Fun.protect
      ~finally:(fun () -> Core.Parallel.shutdown_pool pool)
      (fun () -> Measure.per_call ~reps (fun () -> Core.Parallel.pool_map pool [ 1 ]))
  in
  let response =
    let by_size =
      List.sort compare
        (List.map (fun r -> (String.length (Serve.Protocol.json_to_string r), r)) mix.m_responses)
    in
    snd (List.nth by_size (List.length by_size / 2))
  in
  let text = Serve.Protocol.json_to_string response in
  let print_us = Measure.per_call ~reps (fun () -> Serve.Protocol.json_to_string response) in
  let parse_us = Measure.per_call ~reps (fun () -> J.parse text) in
  let suite = Workloads.Suite.characterization () in
  let collect_s, samples =
    let runs =
      List.init (if args.smoke then 1 else 3) (fun _ ->
          let t0 = now () in
          let samples, _ = Core.Characterize.collect_with_report ~jobs suite in
          (now () -. t0, samples))
    in
    (Measure.median (List.map fst runs), snd (List.hd runs))
  in
  let fit_s = Measure.per_call ~reps (fun () -> Core.Characterize.fit_samples samples) in
  let power_ns =
    let one () =
      List.fold_left
        (fun (t, n) (c : Core.Extract.case) ->
          let t0 = now () in
          let _, cpu =
            Power.Estimator.estimate_program ?extension:c.Core.Extract.extension
              c.Core.Extract.asm
          in
          (t +. (now () -. t0), n + Sim.Cpu.instructions cpu))
        (0.0, 0) suite
    in
    Measure.median
      (List.init (if args.smoke then 1 else 3) (fun _ ->
           let t, n = one () in
           1e9 *. t /. float_of_int n))
  in
  let evaluate_ms =
    let model = model_of Sim.Config.default in
    let cands = Workloads.Spaces.rs () in
    Measure.median
      (List.init (if args.smoke then 1 else 3) (fun _ ->
           let cache = Core.Eval_cache.create () in
           Measure.time (fun () -> Core.Explore.evaluate ~jobs ~cache model cands)))
    *. 1e3
    /. float_of_int (List.length cands)
  in
  let start_ms = 1e3 *. cli_start_s ~n:(if args.smoke then 3 else 11) args.exe in
  [ ("workloads.find_us", 1e6 *. find_us, "us");
    ("eval_cache.key_us", 1e6 *. key_us, "us");
    ("eval_cache.find_us", 1e6 *. find_cache_us, "us");
    ("eval_cache.store_us", 1e6 *. store_us, "us");
    ("eval_cache.store_disk_us", 1e6 *. store_disk_us, "us");
    ("registry.get_us", 1e6 *. get_us, "us");
    ("template.energy_ns", 1e9 *. energy_ns, "ns");
    ("sim.ns_per_instr", 1e9 *. sim_s, "ns/instr");
    ("extract.ns_per_instr", 1e9 *. extract_s, "ns/instr");
    ("extract.observer_ratio", extract_s /. sim_s, "ratio");
    ("parallel.pool_map_us", 1e6 *. pool_map_us, "us");
    ("json.print_us", 1e6 *. print_us, "us");
    ("json.parse_us", 1e6 *. parse_us, "us");
    ("characterize.collect_s", collect_s, "s");
    ("regress.fit_ms", 1e3 *. fit_s, "ms");
    ("power.ns_per_instr", power_ns, "ns/instr");
    ("explore.evaluate_ms", evaluate_ms, "ms");
    ("cli.start_ms", start_ms, "ms") ]

(* --- Requests ----------------------------------------------------------------- *)

let estimate_request ?(timings = false) ~big names =
  J.Obj
    ([ ("op", J.Str "estimate");
       ("workloads", J.Arr (List.map (fun n -> J.Str n) names)) ]
     @ (if big then [ ("config", J.Obj [ ("icache_size_bytes", J.Num 8192.0) ]) ] else [])
     @ if timings then [ ("timings", J.Bool true) ] else [])

let shuffle rng a =
  let a = Array.copy a in
  let n = Array.length a in
  for j = 0 to n - 2 do
    let m = j + Random.State.int rng (n - j) in
    let t = a.(j) in
    a.(j) <- a.(m);
    a.(m) <- t
  done;
  a

(* Request [i] of client [c] on daemon-warm: a pure function of (seed,
   client, index), so the traffic does not depend on timing.  1 to 4
   distinct names with weights 4:3:2:1 (the median request sits inside
   the 2-name class, not on a boundary between classes, so the p50 does
   not flip between them from seed to seed); one request in four under
   the 8 KB-icache configuration. *)
let warm_request ~seed ~client i =
  let rng = Random.State.make [| seed; client; i |] in
  let r = Random.State.int rng 10 in
  let k = if r < 4 then 1 else if r < 7 then 2 else if r < 9 then 3 else 4 in
  let picked = Array.to_list (Array.sub (shuffle rng names) 0 k) in
  (picked, Random.State.int rng 4 = 0)

(* Round [r] of daemon-cold: every workload once, in seeded order. *)
let cold_order ~seed r = Array.to_list (shuffle (Random.State.make [| seed; r |]) names)

let digest_requests reqs =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Serve.Protocol.json_to_string reqs)))

(* --- Workload: daemon-warm ----------------------------------------------------- *)

let check_audit d =
  with_session d @@ fun s ->
  let r = call s (J.Obj [ ("op", J.Str "audit") ]) in
  if not (is_ok r) then failwith ("audit refused: " ^ describe_error r);
  let a = match field "audit" r with Some a -> a | None -> failwith "audit: no report" in
  let mean = num_field "mean_abs_error_percent" a and mx = num_field "max_abs_error_percent" a in
  if not (Float.equal mean audit_mean_pct && Float.equal mx audit_max_pct) then
    failwith
      (Printf.sprintf
         "paper invariant broken: audit mean/max error %.6f/%.6f %%, expected %.6f/%.6f %%"
         mean mx audit_mean_pct audit_max_pct)

let daemon_layers ~load ~ping ~(delta : stats) ~ops ~instrs =
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  router_layers ~samples:load.samples ~ping_rtt:ping
  @ [ ("eval_cache.hit_ratio", ratio delta.cache_hits delta.cache_misses, "ratio");
      ("eval_cache.misses_per_op", float_of_int delta.cache_misses /. float_of_int ops, "count");
      ("registry.hit_ratio", ratio delta.registry_hits delta.registry_misses, "ratio");
      ("sim.instructions_per_op", float_of_int instrs /. float_of_int ops, "count");
      ("sim.simulations_per_op", float_of_int delta.cache_stores /. float_of_int ops, "count") ]

let sum_instrs load = List.fold_left (fun a s -> a + s.instrs) 0 load.samples

let daemon_warm args =
  let all = Array.to_list names in
  let cases = Workloads.Suite.all () in
  let m_default = characterize Sim.Config.default and m_8k = characterize config_8k in
  let x_default = oracle_estimates ~model:m_default ~config:Sim.Config.default cases in
  let x_8k = oracle_estimates ~model:m_8k ~config:config_8k cases in
  let expect big = if big then x_8k else x_default in
  let digest =
    digest_requests
      (List.concat
         (List.init jobs (fun client ->
              List.init 4096 (fun i ->
                  let ns, big = warm_request ~seed:args.seed ~client i in
                  estimate_request ~big ns))))
  in
  (* Set-up: spawn, characterize both configurations, warm the cache
     with one pass over every name. *)
  let setup_once () =
    let t0 = now () in
    let d, _ = start_daemon ~exe:args.exe [] in
    (try
       maybe_fail args "setup";
       with_session d (fun s ->
           List.iter
             (fun big ->
               match
                 check_estimate ~expect:(expect big) ~cached:false ~registry_hit:false all
                   (call s (estimate_request ~big all))
               with
               | Ok _ -> ()
               | Error msg -> failwith ("set-up answer: " ^ msg))
             [ false; true ])
     with e ->
       stop_daemon d;
       raise e);
    (d, now () -. t0)
  in
  let rec setups i acc =
    let d, s = setup_once () in
    if i >= (if args.smoke then 1 else 3) then (d, s :: acc)
    else begin
      stop_daemon d;
      setups (i + 1) (s :: acc)
    end
  in
  let d, setup_times = setups 1 [] in
  let load, elapsed, delta, rss, ping, backend =
    Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
    check_audit d;
    let before = daemon_stats d in
    let counters = Array.make jobs 0 in
    let t0 = now () in
    let deadline = t0 +. args.seconds in
    let next c =
      if now () >= deadline then None
      else begin
        let i = counters.(c) in
        counters.(c) <- i + 1;
        let ns, big = warm_request ~seed:args.seed ~client:c i in
        let traced = args.trace && i mod 2 = 0 in
        Some (estimate_request ~timings:traced ~big ns, traced, (ns, big))
      end
    in
    let check (ns, big) resp =
      check_estimate ~expect:(expect big) ~cached:true ~registry_hit:true ns resp
    in
    let load =
      drive ~socket:d.socket ~clients:jobs ~keep_every:(if args.trace then 8 else 0) ~next
        ~check
    in
    let elapsed = now () -. t0 in
    maybe_fail args "load";
    let after = daemon_stats d in
    let rss = Proc.tree_hwm_mb d.pid in
    let ping = ping_rtt_s ~n:(if args.smoke then 20 else 200) d in
    (load, elapsed, stats_map2 ( - ) after before, rss, ping, after.backend)
  in
  let ops = List.length load.samples in
  let instrs = sum_instrs load in
  let e2e =
    latency_metrics ~what:"requests" (List.map (fun s -> s.lat) load.samples)
    @ [ ("throughput_ops_s", float_of_int ops /. elapsed, "1/s",
         Printf.sprintf "%d requests in %.2f s" ops elapsed);
        ("sim_minstr_per_s", float_of_int instrs /. elapsed /. 1e6, "Minstr/s",
         "instructions of the estimated rows (served from the cache) per second");
        ("setup_s", Measure.median setup_times, "s",
         Printf.sprintf "median of %d spawn-characterize-warm set-ups" (List.length setup_times));
        ("peak_rss_mb", rss, "MB", "VmHWM of the daemon plus its pool lanes") ]
  in
  let layers =
    if not args.trace then []
    else begin
      let items =
        List.concat
          (List.init jobs (fun client ->
               List.concat
                 (List.init 32 (fun i ->
                      let ns, big = warm_request ~seed:args.seed ~client i in
                      let cfg = if big then config_8k else Sim.Config.default in
                      List.map
                        (fun n -> (Workloads.Suite.find n, cfg, Hashtbl.find (expect big) n))
                        ns))))
      in
      let mix =
        { m_items = items;
          m_distinct = List.map (fun c -> (c, Sim.Config.default, Hashtbl.find x_default c.Core.Extract.case_name)) cases;
          m_models = [ (Sim.Config.default, m_default); (config_8k, m_8k) ];
          m_responses = load.kept }
      in
      daemon_layers ~load ~ping ~delta ~ops ~instrs @ layer_timings args mix
    end
  in
  { attempted = ops + List.length load.failures;
    failed = List.length load.failures;
    failures = load.failures;
    e2e; layers; backend; stream_digest = digest }

(* --- Workload: daemon-cold ------------------------------------------------------ *)

type round = {
  ready_s : float;
  busy_s : float;          (* first request sent to last answer in *)
  r_load : load;
  r_stats : stats;
  r_rss : float;
  r_ping : float;
}

let daemon_cold args =
  let model_file = "coeffs.txt" in
  let model = Core.Template.load model_file in
  let cases = Workloads.Suite.all () in
  let expect = oracle_estimates ~model ~config:Sim.Config.default cases in
  let digest =
    digest_requests
      (List.concat
         (List.init 64 (fun r ->
              List.map (fun n -> estimate_request ~big:false [ n ]) (cold_order ~seed:args.seed r))))
  in
  let t_start = now () in
  let rec rounds r acc =
    if r > 0 && now () -. t_start >= args.seconds then List.rev acc
    else begin
      let d, ready_s = start_daemon ~exe:args.exe [ "--model"; model_file ] in
      let round =
        Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
        maybe_fail args "setup";
        (* Traced runs alternate untraced and traced rounds, so both
           halves see the same multiset of workloads. *)
        let traced = args.trace && r mod 2 = 1 in
        let queue = ref (cold_order ~seed:args.seed r) in
        let lock = Mutex.create () in
        let next _ =
          Mutex.lock lock;
          let item =
            match !queue with
            | [] -> None
            | n :: rest ->
              queue := rest;
              Some (estimate_request ~timings:traced ~big:false [ n ], traced, n)
          in
          Mutex.unlock lock;
          item
        in
        let check n resp =
          check_estimate ~expect ~cached:false ~registry_hit:true [ n ] resp
        in
        let t0 = now () in
        let load =
          drive ~socket:d.socket ~clients:jobs ~keep_every:(if args.trace then 4 else 0) ~next
            ~check
        in
        let busy_s = now () -. t0 in
        maybe_fail args "load";
        let st = daemon_stats d in
        let rss = Proc.tree_hwm_mb d.pid in
        let ping = if args.trace then ping_rtt_s ~n:(if args.smoke then 20 else 100) d else 0.0 in
        { ready_s; busy_s; r_load = load; r_stats = st; r_rss = rss; r_ping = ping }
      in
      rounds (r + 1) (round :: acc)
    end
  in
  let rs = rounds 0 [] in
  let load =
    List.fold_left
      (fun acc r ->
        { samples = r.r_load.samples @ acc.samples;
          failures = r.r_load.failures @ acc.failures;
          kept = r.r_load.kept @ acc.kept })
      { samples = []; failures = []; kept = [] } rs
  in
  let busy = List.fold_left (fun a r -> a +. r.busy_s) 0.0 rs in
  let ops = List.length load.samples in
  let instrs = sum_instrs load in
  let e2e =
    latency_metrics ~what:"requests" (List.map (fun s -> s.lat) load.samples)
    @ [ ("throughput_ops_s", float_of_int ops /. busy, "1/s",
         Printf.sprintf "%d requests in %d rounds, %.2f s of request time" ops (List.length rs) busy);
        ("sim_minstr_per_s", float_of_int instrs /. busy /. 1e6, "Minstr/s",
         "instructions simulated per second of request time");
        ("setup_s", Measure.median (List.map (fun r -> r.ready_s) rs), "s",
         Printf.sprintf "median spawn-to-ready over %d rounds" (List.length rs));
        ("peak_rss_mb", Measure.median (List.map (fun r -> r.r_rss) rs), "MB",
         "median over rounds of the daemon-plus-lanes VmHWM") ]
  in
  let layers =
    if not args.trace then []
    else begin
      let delta = List.fold_left (fun a r -> stats_map2 ( + ) a r.r_stats) zero_stats rs in
      let ping = Measure.median (List.map (fun r -> r.r_ping) rs) in
      let items = List.map (fun c -> (c, Sim.Config.default, Hashtbl.find expect c.Core.Extract.case_name)) cases in
      let mix =
        { m_items = items; m_distinct = items;
          m_models = [ (Sim.Config.default, model) ];
          m_responses = load.kept }
      in
      daemon_layers ~load ~ping ~delta ~ops ~instrs @ layer_timings args mix
    end
  in
  { attempted = ops + List.length load.failures;
    failed = List.length load.failures;
    failures = load.failures;
    e2e; layers;
    backend = (match rs with r :: _ -> r.r_stats.backend | [] -> "?");
    stream_digest = digest }

(* --- Workload: explore-cold ----------------------------------------------------- *)

let strip_wall = function
  | J.Obj fs -> J.Obj (List.filter (fun (k, _) -> k <> "wall_seconds") fs)
  | j -> j

(* One CLI sweep into a fresh cache directory: seconds, peak RSS of the
   CLI process (sampled every 10 ms) and the parsed output. *)
let sweep ~exe ~traced =
  let dir = fresh_dir "xc" in
  let out = run_dir ^ "/sweep.json" and err = run_dir ^ "/sweep.log" in
  let argv =
    [ exe; "explore"; "--space"; "rs-cache"; "--json"; "--cache-dir"; dir;
      "-j"; string_of_int jobs ]
    @ if traced then [ "--trace"; run_dir ^ "/sweep-trace.json" ] else []
  in
  let t0 = now () in
  let pid = Proc.spawn ~stdout:out ~stderr:err (Array.of_list argv) in
  let peak = ref 0 and running = ref true in
  let sampler =
    Thread.create
      (fun () ->
        while !running do
          peak := max !peak (Proc.vmhwm_kb pid);
          Thread.delay 0.01
        done)
      ()
  in
  let status = Proc.wait pid in
  let lat = now () -. t0 in
  running := false;
  Thread.join sampler;
  rm_rf dir;
  let result =
    match status with
    | Unix.WEXITED 0 -> (
      match Proc.read_file out with
      | Some text -> (try Ok (J.parse text) with J.Parse_error m -> Error ("sweep output: " ^ m))
      | None -> Error "sweep wrote no output")
    | _ -> Error ("explore failed: " ^ Option.value ~default:"" (Proc.read_file err))
  in
  (lat, float_of_int !peak /. 1024.0, result)

let explore_cold args =
  let candidates = Workloads.Spaces.rs_cache () in
  let oracle =
    Core.Explore.run ~jobs ~cache:(Core.Eval_cache.create ())
      ~characterization:(Workloads.Suite.characterization ()) candidates
  in
  let expected = strip_wall (J.parse (Core.Explore.to_json oracle)) in
  let char_instrs =
    List.fold_left
      (fun a c -> a + (Core.Extract.profile c).Core.Extract.instructions)
      0 (Workloads.Suite.characterization ())
  in
  (* Every simulation of a sweep: the characterization suite once per
     configuration, then each candidate. *)
  let instrs_per_sweep =
    (oracle.Core.Explore.configs_characterized * char_instrs)
    + List.fold_left (fun a p -> a + p.Core.Explore.pt_instructions) 0 oracle.Core.Explore.points
  in
  let n_cand = List.length candidates in
  let setup_s = cli_start_s ~n:(if args.smoke then 3 else 11) args.exe in
  let t_start = now () in
  let rec sweeps i acc =
    if i > 0 && now () -. t_start >= args.seconds then List.rev acc
    else begin
      let traced = args.trace && i mod 2 = 1 in
      let lat, rss, result = sweep ~exe:args.exe ~traced in
      let result =
        match result with
        | Ok j when strip_wall j = expected -> Ok j
        | Ok _ -> Error "sweep differs from Core.Explore.run"
        | Error m -> Error m
      in
      sweeps (i + 1) ((lat, rss, traced, result) :: acc)
    end
  in
  let runs = sweeps 0 [] in
  let good = List.filter_map (fun (l, r, t, res) -> match res with Ok j -> Some (l, r, t, j) | Error _ -> None) runs in
  let failures = List.filter_map (fun (_, _, _, res) -> match res with Error m -> Some m | Ok _ -> None) runs in
  let lats = List.map (fun (l, _, _, _) -> l) good in
  let busy = List.fold_left ( +. ) 0.0 lats in
  let n = List.length good in
  let e2e =
    latency_metrics ~what:"sweeps" lats
    @ [ ("throughput_ops_s", float_of_int (n * n_cand) /. busy, "1/s",
         Printf.sprintf "candidates per second: %d sweeps of %d candidates in %.2f s" n n_cand busy);
        ("sim_minstr_per_s", float_of_int (n * instrs_per_sweep) /. busy /. 1e6, "Minstr/s",
         Printf.sprintf "%d instructions simulated per sweep" instrs_per_sweep);
        ("setup_s", setup_s, "s", "median spawn-to-exit of `xenergy --version`");
        ("peak_rss_mb", Measure.median (List.map (fun (_, r, _, _) -> r) good), "MB",
         "median over sweeps of the CLI process VmHWM") ]
  in
  let layers, probe_failures, backend =
    if not args.trace then ([], [], backend_name ())
    else begin
      (* The same sweep served by the daemon's explore op, with phase
         timings: where a sweep's time goes layer by layer. *)
      let d, _ = start_daemon ~exe:args.exe [] in
      let sample, failures, ping, st =
        Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
        let t0 = now () in
        let resp =
          with_session d (fun s ->
              call s
                (J.Obj [ ("op", J.Str "explore"); ("space", J.Str "rs-cache"); ("timings", J.Bool true) ]))
        in
        let lat = now () -. t0 in
        let failures =
          let want = oracle.Core.Explore.points in
          let frontier = List.map (fun p -> J.Str p.Core.Explore.pt_name) oracle.Core.Explore.frontier in
          match (field "points" resp, field "frontier" resp) with
          | Some (J.Arr rows), Some (J.Arr f) when is_ok resp && List.length rows = List.length want ->
            let same row (p : Core.Explore.point) =
              field "name" row = Some (J.Str p.Core.Explore.pt_name)
              && Float.equal (num_field "energy_pj" row) p.Core.Explore.pt_energy_pj
              && int_field "cycles" row = p.Core.Explore.pt_cycles
              && int_field "instructions" row = p.Core.Explore.pt_instructions
            in
            if List.for_all2 same rows want && f = frontier then []
            else [ "explore op differs from Core.Explore.run" ]
          | _ -> [ "explore op refused: " ^ describe_error resp ]
        in
        let ping = ping_rtt_s ~n:(if args.smoke then 20 else 200) d in
        ({ lat; traced = true; phases = phases_of resp; instrs = instrs_per_sweep }, failures, ping, daemon_stats d)
      in
      let traced = List.filter_map (fun (l, _, t, _) -> if t then Some l else None) good in
      let untraced = List.filter_map (fun (l, _, t, _) -> if t then None else Some l) good in
      let overhead =
        if traced = [] || untraced = [] then 0.0
        else (Measure.median traced /. Measure.median untraced) -. 1.0
      in
      let router =
        List.map
          (fun ((name, _, u) as m) -> if name = "trace_overhead_frac" then (name, overhead, u) else m)
          (router_layers ~samples:[ sample ] ~ping_rtt:ping)
      in
      let cache = match good with (_, _, _, j) :: _ -> field "cache" j | [] -> None in
      let hits, misses =
        match cache with Some c -> (int_field "hits" c, int_field "misses" c) | None -> (0, 0)
      in
      let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
      let sims = match good with (_, _, _, j) :: _ -> int_field "simulations" j | [] -> 0 in
      let model = characterize Sim.Config.default in
      let items =
        List.map
          (fun (c : Core.Explore.candidate) ->
            let r = Core.Estimate.run ~config:c.Core.Explore.config model c.Core.Explore.case in
            ( c.Core.Explore.case, c.Core.Explore.config,
              { x_energy = r.Core.Estimate.energy_pj; x_cycles = r.Core.Estimate.cycles;
                x_instrs = r.Core.Estimate.instructions;
                x_vars = r.Core.Estimate.profile.Core.Extract.variables } ))
          candidates
      in
      let configs =
        List.sort_uniq compare (List.map (fun (c : Core.Explore.candidate) -> c.Core.Explore.config) candidates)
      in
      let mix =
        { m_items = items; m_distinct = items;
          m_models = List.map (fun cfg -> (cfg, model)) configs;
          m_responses = List.map (fun (_, _, _, j) -> j) good }
      in
      ( router
        @ [ ("eval_cache.hit_ratio", ratio hits misses, "ratio");
            ("eval_cache.misses_per_op", float_of_int misses, "count");
            ("registry.hit_ratio", ratio st.registry_hits st.registry_misses, "ratio");
            ("sim.instructions_per_op", float_of_int instrs_per_sweep, "count");
            ("sim.simulations_per_op", float_of_int sims, "count") ]
        @ layer_timings args mix,
        failures, st.backend )
    end
  in
  let failures = failures @ probe_failures in
  { attempted = List.length runs; failed = List.length failures; failures; e2e; layers;
    backend;
    stream_digest = Digest.to_hex (Digest.string "explore --space rs-cache --json (seed not used)") }

(* --- Context and output --------------------------------------------------------- *)

let git_rev () =
  let read p = Option.map String.trim (Proc.read_file p) in
  match read ".git/HEAD" with
  | None -> "none (not a git checkout)"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (".git/" ^ r) with Some rev -> rev | None -> head)
  | Some rev -> rev

(* Digest of the program's sources (lib/, bin/, dune-project): two runs
   with the same digest ran the same code, git or not. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      List.concat_map
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then files p else [ p ])
        (List.sort compare (Array.to_list entries))
    | exception Sys_error _ -> []
  in
  let paths = files "lib" @ files "bin" @ [ "dune-project" ] in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun p -> p ^ Digest.to_hex (Digest.file p)) (List.filter Sys.file_exists paths))))

(* A fixed reference task timed before and after the workload: dependent
   random reads over a freshly allocated 8 MB array, so it slows down
   when neighbours contend for caches and memory, as the workloads do.
   When two runs disagree, a moved reference says the host changed
   speed, a steady one says the program did. *)
let host_ref_ms () =
  let n = 1 lsl 20 in
  let work () =
    let a = Array.init n (fun i -> i * 7919) in
    let x = ref 0 in
    for i = 1 to 2_000_000 do
      x := (!x + a.((!x + (i * 4099)) land (n - 1))) land 0xFFFFFF
    done;
    !x
  in
  1e3 *. Measure.median (List.init 3 (fun _ -> Measure.time work))

let context args ~host_ref o =

  J.Obj
    [ ("schema", J.Str schema);
      ("workload", J.Str args.workload);
      ("seed", J.Num (float_of_int args.seed));
      ("seed_applies", J.Bool (args.workload <> "explore-cold"));
      ("seconds", J.Num args.seconds);
      ("trace", J.Bool args.trace);
      ("smoke", J.Bool args.smoke);
      ("git_rev", J.Str (git_rev ()));
      ("source_digest", J.Str (source_digest ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("host", J.Str (Unix.gethostname ()));
      ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("clients", J.Num (float_of_int jobs));
      ("daemon_jobs", J.Num (float_of_int jobs));
      ("backend", J.Str o.backend);
      ("request_stream_digest", J.Str o.stream_digest);
      ("host_ref_ms", J.Arr (List.map (fun v -> J.Num v) host_ref)) ]

let json_number v = Printf.sprintf "%.17g" v

let report args ~host_ref o =
  let correct = o.failures = [] in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" args.workload args.seed args.seconds
    (if args.trace then 1 else 0);
  Printf.printf "  end-to-end%s:\n" (if args.trace then " (traced run; not the reported figures)" else "");
  List.iter
    (fun (n, v, u, note) -> Printf.printf "    %-22s %14.4f %-9s %s\n" n v u note)
    o.e2e;
  if args.trace then begin
    Printf.printf "  per layer:\n";
    List.iter (fun (n, v, u) -> Printf.printf "    %-28s %14.4f %s\n" n v u) o.layers
  end;
  Printf.printf "  operations: %d attempted, %d failed\n" o.attempted o.failed;
  List.iteri
    (fun i m -> if i < 10 then Printf.printf "  FAILED: %s\n" m)
    o.failures;
  Printf.printf "context: %s\n" (Serve.Protocol.json_to_string (context args ~host_ref o));
  let metrics =
    if args.trace then o.layers else List.map (fun (n, v, u, _) -> (n, v, u)) o.e2e
  in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then failwith ("non-finite metric " ^ n))
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          metrics));
  flush stdout;
  if correct then 0 else 1

let main () =
  let args = parse_args () in
  Sim.Backend.init_from_env ();
  (* Every way out — normal end, failed check, exception, signal — runs
     the at_exit hook: stop and reap what is still running, then drop
     the scratch directory. *)
  let on_signal code = Sys.Signal_handle (fun _ -> exit code) in
  Sys.set_signal Sys.sigint (on_signal 130);
  Sys.set_signal Sys.sigterm (on_signal 143);
  Sys.set_signal Sys.sighup (on_signal 129);
  at_exit (fun () ->
      (try Proc.cleanup () with _ -> ());
      try rm_rf run_dir with Unix.Unix_error _ | Sys_error _ -> ());
  rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  let ref_start = host_ref_ms () in
  let code =
    match
      match args.workload with
      | "daemon-warm" -> daemon_warm args
      | "daemon-cold" -> daemon_cold args
      | _ -> explore_cold args
    with
    | o -> report args ~host_ref:[ ref_start; host_ref_ms () ] o
    | exception e ->
      Printf.eprintf "perfbench: %s: %s\n%!" args.workload (Printexc.to_string e);
      1
  in
  exit code

let () = main ()
