(* The serving stack, bottom-up: the length-prefixed frame codec (and
   its deadline/oversize/truncation refusals in both directions), the
   JSON printer round-trip, the model registry's
   hit/characterize/evict lifecycle, the router's ops in process, and
   a forked end-to-end daemon exercised through the real client —
   including the concurrency contract: overlapping connections,
   per-config single-flight characterization, wedged/half-closed/
   hanging-up clients, socket-steal refusal and the /metrics scrape. *)

let check = Alcotest.check

module J = Obs.Json

let socketpair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- Protocol ------------------------------------------------------------- *)

let test_frame_roundtrip () =
  let a, b = socketpair () in
  Serve.Protocol.write_frame a "hello, frame";
  check Alcotest.(option string) "payload round-trips" (Some "hello, frame")
    (Serve.Protocol.read_frame b);
  Serve.Protocol.write_frame a "";
  check Alcotest.(option string) "empty payload round-trips" (Some "")
    (Serve.Protocol.read_frame b);
  (* Two frames written back to back arrive as two frames. *)
  Serve.Protocol.write_frame a "first";
  Serve.Protocol.write_frame a "second";
  check Alcotest.(option string) "first frame" (Some "first")
    (Serve.Protocol.read_frame b);
  check Alcotest.(option string) "second frame" (Some "second")
    (Serve.Protocol.read_frame b);
  Unix.close a;
  check Alcotest.(option string) "clean EOF between frames is None" None
    (Serve.Protocol.read_frame b);
  Unix.close b

let test_frame_truncation_and_oversize () =
  (* A peer that dies mid-frame is a Frame_error, not a hang or a None. *)
  let a, b = socketpair () in
  let partial = "\x00\x00\x00\x0aabc" (* claims 10 bytes, ships 3 *) in
  ignore (Unix.write_substring a partial 0 (String.length partial));
  Unix.close a;
  (match Serve.Protocol.read_frame b with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "truncation named" true (contains msg "truncated")
   | _ -> Alcotest.fail "truncated frame not rejected");
  Unix.close b;
  (* An oversized length prefix is rejected before any allocation. *)
  let a, b = socketpair () in
  ignore (Unix.write_substring a "\x7f\xff\xff\xff" 0 4);
  (match Serve.Protocol.read_frame b with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "bound named" true (contains msg "exceeds")
   | _ -> Alcotest.fail "oversized frame not rejected");
  Unix.close a;
  Unix.close b

let test_frame_read_deadline () =
  (* A silent peer cannot hold the reader past its deadline. *)
  let a, b = socketpair () in
  let t0 = Unix.gettimeofday () in
  (match Serve.Protocol.read_frame ~deadline:(t0 +. 0.2) b with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "timeout named" true (contains msg "timed out")
   | _ -> Alcotest.fail "deadline did not fire");
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "fired promptly" true (dt >= 0.15 && dt < 2.0);
  Unix.close a;
  Unix.close b

let test_frame_write_deadline () =
  (* The write side is symmetric with the read side: a peer that stops
     draining cannot hold a writer past its deadline.  The writer must
     be non-blocking for the deadline to bound a single large write. *)
  let a, b = socketpair () in
  Unix.set_nonblock a;
  let big = String.make (4 * 1024 * 1024) 'x' in
  let t0 = Unix.gettimeofday () in
  (match Serve.Protocol.write_frame ~deadline:(t0 +. 0.3) a big with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "write timeout named" true (contains msg "timed out")
   | () -> Alcotest.fail "unread 4 MiB frame did not hit the write deadline");
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "fired promptly" true (dt >= 0.25 && dt < 2.0);
  Unix.close a;
  Unix.close b

let test_json_print_roundtrip () =
  let doc =
    J.Obj
      [ ("s", J.Str "quote \" backslash \\ newline \n control \x01 done");
        ("i", J.Num 42.0);
        ("f", J.Num 4234263.3599835774);
        ("neg", J.Num (-0.5));
        ("t", J.Bool true);
        ("n", J.Null);
        ("a", J.Arr [ J.Num 1.0; J.Str "x"; J.Obj [ ("k", J.Bool false) ] ]) ]
  in
  check Alcotest.bool "printer output re-parses to the same document" true
    (J.parse (Serve.Protocol.json_to_string doc) = doc);
  (* Non-finite floats have no JSON encoding: printed as null. *)
  check Alcotest.string "nan prints as null" "null"
    (Serve.Protocol.json_to_string (J.Num Float.nan));
  check Alcotest.string "inf prints as null" "null"
    (Serve.Protocol.json_to_string (J.Num Float.infinity));
  (* Negative and exponent-heavy floats survive print -> parse
     bit-for-bit: %.17g is enough decimal digits to pin down any
     double, normal or subnormal. *)
  List.iter
    (fun f ->
      match J.parse (Serve.Protocol.json_to_string (J.Num f)) with
      | J.Num g ->
        check Alcotest.bool
          (Printf.sprintf "%h round-trips bit-for-bit" f)
          true
          (Int64.bits_of_float f = Int64.bits_of_float g)
      | _ -> Alcotest.fail "number did not parse back to a number")
    [ -0.5; -1.25e-7; 6.02214076e23; -6.02214076e23; 1e300; -1e300;
      3.0e-321; epsilon_float; min_float; -.max_float;
      4234263.3599835774; -0.1 ]

(* --- Registry ------------------------------------------------------------- *)

let stub_model = Core.Template.make (Array.make Core.Variables.count 1.0)

let config_ways n =
  { Sim.Config.default with
    Sim.Config.icache =
      { Sim.Config.default.Sim.Config.icache with Sim.Config.ways = n } }

let test_registry_hit_and_eviction () =
  let calls = ref 0 in
  let reg =
    Serve.Registry.create ~max_models:2
      ~characterize:(fun _ -> incr calls; stub_model)
      ()
  in
  let l1 = Serve.Registry.get reg Sim.Config.default in
  check Alcotest.bool "first lookup characterizes" false
    l1.Serve.Registry.l_hit;
  check Alcotest.int "one characterization" 1 !calls;
  let l2 = Serve.Registry.get reg Sim.Config.default in
  check Alcotest.bool "second lookup hits" true l2.Serve.Registry.l_hit;
  check Alcotest.int "still one characterization" 1 !calls;
  check Alcotest.string "same key" l1.Serve.Registry.l_key
    l2.Serve.Registry.l_key;
  (* Distinct configurations get distinct models; the bound evicts the
     least recently used. *)
  Unix.sleepf 0.01;
  ignore (Serve.Registry.get reg (config_ways 2));
  Unix.sleepf 0.01;
  ignore (Serve.Registry.get reg (config_ways 1));
  check Alcotest.int "three characterizations" 3 !calls;
  let s = Serve.Registry.stats reg in
  check Alcotest.int "resident set bounded" 2 s.Serve.Registry.r_models;
  check Alcotest.int "one eviction" 1 s.Serve.Registry.r_evictions;
  (* The default config was the LRU model: looking it up again must
     re-characterize. *)
  let l3 = Serve.Registry.get reg Sim.Config.default in
  check Alcotest.bool "evicted model re-characterizes" false
    l3.Serve.Registry.l_hit;
  check Alcotest.int "fourth characterization" 4 !calls

(* --- Router (in-process) -------------------------------------------------- *)

let member name resp =
  match resp with
  | J.Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "response lacks %S" name))
  | _ -> Alcotest.fail "response is not an object"

let as_bool = function
  | J.Bool b -> b
  | _ -> Alcotest.fail "expected a boolean"

let as_int = function
  | J.Num f -> int_of_float f
  | _ -> Alcotest.fail "expected a number"

let as_float = function
  | J.Num f -> f
  | _ -> Alcotest.fail "expected a number"

let with_router f =
  let router =
    Serve.Router.create ~max_models:2 ~jobs:2
      ~characterize:(fun _ -> stub_model)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.Router.shutdown router)
    (fun () -> f router)

let test_router_memo_keys () =
  (* The memoized eval-cache key is byte-identical to a fresh one for
     every workload, on both backends and two configurations, on the
     first (computing) and the second (memoized) lookup alike. *)
  with_router @@ fun router ->
  let small_icache =
    let d = Sim.Config.default in
    { d with Sim.Config.icache = { d.Sim.Config.icache with size_bytes = 8192 } }
  in
  let key = Serve.Router.eval_cache_key router in
  List.iter
    (fun name ->
      let case = Workloads.Suite.find name in
      List.iter
        (fun config ->
          List.iter
            (fun backend ->
              let fresh = Core.Eval_cache.key ~backend ~config case in
              let first = key ~backend ~config case in
              let again = key ~backend ~config case in
              let what = name ^ "/" ^ backend in
              check Alcotest.string (what ^ ": computed") fresh first;
              check Alcotest.string (what ^ ": memoized") fresh again)
            [ "interp"; "threaded" ])
        [ Sim.Config.default; small_icache ])
    (Workloads.Suite.names ());
  (* Past the memo's bound it starts over and stays correct. *)
  let gcd = Workloads.Suite.find "gcd" in
  for i = 1 to 4200 do
    let config =
      { Sim.Config.default with Sim.Config.max_cycles = 1_000_000 + i }
    in
    let k = key ~backend:"interp" ~config gcd in
    if i mod 700 = 0 then
      check Alcotest.string "key past the bound"
        (Core.Eval_cache.key ~backend:"interp" ~config gcd)
        k
  done

let test_router_profile_op () =
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  let resp =
    call (J.Obj [ ("op", J.Str "profile"); ("workload", J.Str "gcd") ])
  in
  check Alcotest.bool "profile ok" true (as_bool (member "ok" resp));
  check Alcotest.bool "cold profile characterizes" false
    (as_bool (member "registry_hit" resp));
  let p = member "profile" resp in
  let cycles = as_int (member "cycles" p) in
  let total_pj = as_float (member "total_energy_pj" p) in
  let blocks =
    match member "blocks" p with
    | J.Arr l -> l
    | _ -> Alcotest.fail "blocks is not an array"
  in
  check Alcotest.bool "some blocks executed" true (blocks <> []);
  (* The daemon answer carries the full executed-block list, so a client
     can re-check conservation from the wire format alone. *)
  let sum_c =
    List.fold_left (fun a b -> a + as_int (member "cycles" b)) 0 blocks
  in
  let sum_e =
    List.fold_left (fun a b -> a +. as_float (member "energy_pj" b)) 0.0 blocks
  in
  check Alcotest.int "block cycles conserve over the wire" cycles sum_c;
  check Alcotest.bool "block energy conserves over the wire" true
    (Float.abs (sum_e -. total_pj) <= 1e-6 *. Float.max 1.0 total_pj);
  check Alcotest.int "cycle gap reported as zero" 0
    (as_int (member "cycle_gap" p));
  (* Warm call: same registry model; "top" truncates the block list but
     never the totals. *)
  let resp2 =
    call
      (J.Obj
         [ ("op", J.Str "profile"); ("workload", J.Str "gcd");
           ("top", J.Num 1.0) ])
  in
  check Alcotest.bool "warm profile hits the registry" true
    (as_bool (member "registry_hit" resp2));
  (match member "blocks" (member "profile" resp2) with
   | J.Arr [ _ ] -> ()
   | _ -> Alcotest.fail "top=1 did not truncate the block list");
  check Alcotest.int "truncation keeps totals" cycles
    (as_int (member "cycles" (member "profile" resp2)));
  (* Bad requests are refused, not fatal. *)
  List.iter
    (fun req ->
      check Alcotest.bool "bad profile request refused" false
        (as_bool (member "ok" (call req))))
    [ J.Obj [ ("op", J.Str "profile") ];
      J.Obj [ ("op", J.Str "profile"); ("workload", J.Str "nosuch") ];
      J.Obj
        [ ("op", J.Str "profile"); ("workload", J.Str "gcd");
          ("top", J.Num 0.0) ] ];
  check Alcotest.bool "router still alive" true
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "ping") ]))))

let test_router_explore_op () =
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  let explore = J.Obj [ ("op", J.Str "explore"); ("space", J.Str "rs") ] in
  let resp = call explore in
  check Alcotest.bool "explore ok" true (as_bool (member "ok" resp));
  check Alcotest.int "four candidates" 4 (as_int (member "candidates" resp));
  check Alcotest.int "one configuration" 1 (as_int (member "configs" resp));
  check Alcotest.int "cold sweep misses the registry" 0
    (as_int (member "registry_hits" resp));
  check Alcotest.bool "cold sweep simulated" true
    (as_int (member "simulations" resp) > 0);
  let points resp =
    match member "points" resp with
    | J.Arr l -> l
    | _ -> Alcotest.fail "points is not an array"
  in
  check Alcotest.int "one row per candidate" 4 (List.length (points resp));
  let frontier =
    match member "frontier" resp with
    | J.Arr l ->
      List.map
        (function J.Str s -> s | _ -> Alcotest.fail "frontier entry not a name")
        l
    | _ -> Alcotest.fail "frontier is not an array"
  in
  check Alcotest.bool "frontier non-empty" true (frontier <> []);
  (* The per-row frontier flag and the frontier name list agree. *)
  List.iter
    (fun p ->
      let name =
        match member "name" p with
        | J.Str s -> s
        | _ -> Alcotest.fail "point lacks a name"
      in
      check Alcotest.bool (name ^ " frontier flag agrees")
        (List.mem name frontier)
        (as_bool (member "frontier" p)))
    (points resp);
  (* Warm sweep: same space answers from the registry and the shared
     evaluation cache without a single simulation. *)
  let resp2 = call explore in
  check Alcotest.int "warm sweep runs zero simulations" 0
    (as_int (member "simulations" resp2));
  check Alcotest.int "warm sweep hits the registry" 1
    (as_int (member "registry_hits" resp2));
  List.iter
    (fun p ->
      check Alcotest.bool "warm row served from cache" true
        (as_bool (member "cached" p)))
    (points resp2);
  (* Refusals name the valid spaces and never kill the router. *)
  let bad = call (J.Obj [ ("op", J.Str "explore"); ("space", J.Str "nosuch") ]) in
  check Alcotest.bool "unknown space refused" false (as_bool (member "ok" bad));
  (match member "error" bad with
   | J.Str msg ->
     check Alcotest.bool "error lists the valid spaces" true
       (contains msg "rs-cache")
   | _ -> Alcotest.fail "error is not a string");
  check Alcotest.bool "missing space refused" false
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "explore") ]))));
  check Alcotest.bool "router still alive" true
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "ping") ]))))

let test_request_seconds_buckets () =
  (* The request-latency histogram must use latency-shaped bounds: the
     scrape carries sub-millisecond buckets, cumulative counts are
     monotone, and the +Inf bucket equals _count. *)
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  with_router @@ fun router ->
  for _ = 1 to 3 do
    ignore (Serve.Router.handle router (J.Obj [ ("op", J.Str "ping") ]))
  done;
  let scrape = Obs.Export.to_openmetrics () in
  (* The histogram is labelled per op; registered label first, the
     exporter's le label last. *)
  check Alcotest.bool "sub-millisecond bucket present" true
    (contains scrape "serve_request_seconds_bucket{op=\"ping\",le=\"0.0001\"}");
  (* A warm estimate answers in tens of microseconds: the ladder must
     resolve below 100us too. *)
  check Alcotest.bool "10us bucket present" true
    (contains scrape "serve_request_seconds_bucket{op=\"ping\",le=\"1e-05\"}");
  let lines = String.split_on_char '\n' scrape in
  let starts p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let value line =
    match String.rindex_opt line ' ' with
    | Some i ->
      int_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | None -> Alcotest.fail ("unparsable sample: " ^ line)
  in
  let buckets =
    List.filter
      (fun l ->
        starts "serve_request_seconds_bucket" l && contains l "op=\"ping\"")
      lines
  in
  check Alcotest.bool "all bounds exposed" true (List.length buckets >= 12);
  let counts = List.map value buckets in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check Alcotest.bool "cumulative bucket counts are monotone" true
    (monotone counts);
  let count =
    match
      List.filter
        (fun l ->
          starts "serve_request_seconds_count" l && contains l "op=\"ping\"")
        lines
    with
    | [ line ] -> value line
    | _ -> Alcotest.fail "expected exactly one ping _count sample"
  in
  check Alcotest.bool "requests were observed" true (count >= 3);
  let last = List.nth buckets (List.length buckets - 1) in
  check Alcotest.bool "last bucket is +Inf" true (contains last "+Inf");
  check Alcotest.int "+Inf bucket equals _count" count (value last);
  (* An in-process ping is microseconds; with honest bounds it cannot
     land above the 25 ms bucket.  (The old generic bounds started at
     100 ms and collapsed every fast request into one bucket.) *)
  let at_25ms =
    match
      List.filter (fun l -> contains l "le=\"0.025\"") buckets
    with
    | [ line ] -> value line
    | _ -> Alcotest.fail "25 ms bucket missing"
  in
  check Alcotest.bool "fast requests resolved by sub-100ms buckets" true
    (at_25ms >= 3)

let test_router_timings_and_trace () =
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  let estimate extra =
    J.Obj
      (( [ ("op", J.Str "estimate");
           ("workloads", J.Arr [ J.Str "gcd"; J.Str "des" ]) ]
       @ extra ))
  in
  (* Warm the registry and the cache first: the acceptance criterion is
     about the steady state. *)
  check Alcotest.bool "warm-up ok" true
    (as_bool (member "ok" (call (estimate []))));
  let resp = call (estimate [ ("timings", J.Bool true) ]) in
  check Alcotest.bool "timed request ok" true (as_bool (member "ok" resp));
  let t = member "timings" resp in
  let total = as_float (member "total_us" t) in
  check Alcotest.bool "total wall time positive" true (total > 0.0);
  let phases =
    match member "phases" t with
    | J.Obj kv -> kv
    | _ -> Alcotest.fail "phases is not an object"
  in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " phase reported") true
        (List.mem_assoc n phases))
    [ "registry"; "cache"; "serialize"; "other" ];
  (* Unattributed time lands in "other", so the breakdown accounts for
     the measured wall time — well within the 5% acceptance bound. *)
  let sum = List.fold_left (fun a (_, v) -> a +. as_float v) 0.0 phases in
  check Alcotest.bool "phases sum to total within 5%" true
    (Float.abs (sum -. total) <= 0.05 *. Float.max total 1.0);
  List.iter
    (fun (n, v) ->
      check Alcotest.bool (n ^ " phase non-negative") true
        (as_float (J.Num (as_float v)) >= 0.0))
    phases;
  (* Every response echoes a trace id; fresh requests get fresh ones. *)
  let tid resp =
    match member "trace_id" resp with
    | J.Str s -> s
    | _ -> Alcotest.fail "trace_id is not a string"
  in
  check Alcotest.bool "trace id echoed" true (tid resp <> "");
  check Alcotest.bool "fresh requests get distinct ids" true
    (tid (call (J.Obj [ ("op", J.Str "ping") ]))
     <> tid (call (J.Obj [ ("op", J.Str "ping") ])));
  (* A client-supplied trace context is adopted, not replaced. *)
  let resp =
    call
      (J.Obj
         [ ("op", J.Str "ping");
           ("trace_id", J.Str "cafef00dcafef00d");
           ("parent_span_id", J.Str "beefbeefbeefbeef") ])
  in
  check Alcotest.string "supplied trace id adopted" "cafef00dcafef00d"
    (tid resp);
  (* Timings are opt-in. *)
  match call (J.Obj [ ("op", J.Str "ping") ]) with
  | J.Obj fields ->
    check Alcotest.bool "no timings unless requested" true
      (List.assoc_opt "timings" fields = None)
  | _ -> Alcotest.fail "response is not an object"

let test_router_status_op () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  for _ = 1 to 5 do
    ignore (call (J.Obj [ ("op", J.Str "ping") ]))
  done;
  check Alcotest.bool "estimate ok" true
    (as_bool
       (member "ok"
          (call
             (J.Obj
                [ ("op", J.Str "estimate");
                  ("workloads", J.Arr [ J.Str "gcd" ]) ]))));
  check Alcotest.bool "unknown op refused" false
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "nosuchop") ]))));
  let resp = call (J.Obj [ ("op", J.Str "status") ]) in
  check Alcotest.bool "status ok" true (as_bool (member "ok" resp));
  check Alcotest.int "pid" (Unix.getpid ()) (as_int (member "pid" resp));
  check Alcotest.bool "uptime" true (as_float (member "uptime_s" resp) >= 0.0);
  (* The status request observes itself mid-flight — nothing else is. *)
  check Alcotest.int "only the status request itself inflight" 1
    (as_int (member "inflight" resp));
  let ops =
    match member "ops" resp with
    | J.Arr l -> l
    | _ -> Alcotest.fail "ops is not an array"
  in
  let row op = List.find_opt (fun r -> member "op" r = J.Str op) ops in
  (match row "ping" with
   | Some r ->
     check Alcotest.bool "ping requests counted" true
       (as_int (member "requests" r) >= 5);
     check Alcotest.int "ping inflight zero" 0 (as_int (member "inflight" r));
     let w = member "window" r in
     check Alcotest.bool "window saw the pings" true
       (as_int (member "requests" w) >= 5);
     check Alcotest.bool "request rate positive" true
       (as_float (member "rate_hz" w) > 0.0);
     let quantiles o =
       match (member "p50_ms" o, member "p90_ms" o, member "p99_ms" o) with
       | J.Num a, J.Num b, J.Num c -> (a, b, c)
       | _ -> Alcotest.fail "quantiles missing"
     in
     let w50, w90, w99 = quantiles w in
     check Alcotest.bool "window quantiles ordered" true
       (w50 <= w90 && w90 <= w99);
     let c50, c90, c99 = quantiles (member "cumulative" r) in
     check Alcotest.bool "cumulative quantiles ordered" true
       (c50 <= c90 && c90 <= c99);
     (* The first status call has no window history: the rolling window
        degenerates to the whole uptime, so both views agree exactly. *)
     check (Alcotest.float 1e-9) "first window equals cumulative p99" c99 w99
   | None -> Alcotest.fail "no ping row");
  (match row "invalid" with
   | Some r ->
     check Alcotest.bool "bad op counted under the invalid label" true
       (as_int (member "errors" r) >= 1)
   | None -> Alcotest.fail "no invalid row");
  check Alcotest.bool "idle ops keep no row" true (row "audit" = None);
  check Alcotest.bool "registry residency reported" true
    (as_int (member "models" (member "registry" resp)) >= 1);
  check Alcotest.bool "pool lanes reported" true
    (as_int (member "lanes" (member "pool" resp)) >= 1);
  (* A second poll diffs against the first capture: the window narrows
     to the polling gap instead of the whole uptime. *)
  Unix.sleepf 0.05;
  let resp2 = call (J.Obj [ ("op", J.Str "status") ]) in
  let dt = as_float (member "window_dt_s" resp2) in
  check Alcotest.bool "second poll window is the polling gap" true
    (dt >= 0.04 && dt < as_float (member "uptime_s" resp2))

let test_router_slow_request_log () =
  let path = Filename.temp_file "xenergy-slow" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close ();
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let router =
    (* A threshold of 100 ns marks every request slow. *)
    Serve.Router.create ~max_models:2 ~jobs:2
      ~characterize:(fun _ -> stub_model)
      ~slow_ms:0.0001 ()
  in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  Obs.Log.open_file path;
  check Alcotest.bool "ping ok" true
    (as_bool
       (member "ok" (Serve.Router.handle router (J.Obj [ ("op", J.Str "ping") ]))));
  Obs.Log.close ();
  let records =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map J.parse
  in
  match
    List.find_opt (fun r -> member "event" r = J.Str "serve:slow-request")
      records
  with
  | Some r ->
    check Alcotest.bool "warn level" true (member "level" r = J.Str "warn");
    check Alcotest.bool "op named" true (member "op" r = J.Str "ping");
    check Alcotest.bool "total recorded" true
      (as_float (member "total_ms" r) >= 0.0);
    (match member "trace_id" r with
     | J.Str s -> check Alcotest.bool "trace id attached" true (s <> "")
     | _ -> Alcotest.fail "trace_id missing from the slow-request line");
    let keys = match r with J.Obj kv -> List.map fst kv | _ -> [] in
    check Alcotest.bool "per-phase breakdown attached" true
      (List.exists
         (fun k ->
           String.length k > 6 && String.sub k 0 6 = "phase_"
           && Filename.check_suffix k "_ms")
         keys)
  | None -> Alcotest.fail "no serve:slow-request line in the log"

(* --- End-to-end daemon ---------------------------------------------------- *)

let scratch_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xenergy_%s.%d.sock" name (Unix.getpid ()))

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _ -> 255
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 255

(* Fork a daemon around a stub-characterized router (the stub sleeps so
   concurrent cold requests genuinely overlap) and drive it through the
   real client. *)
let with_server ?(char_sleep = 0.3) ~max_models f =
  let socket = scratch_socket "serve_test" in
  (try Sys.remove socket with Sys_error _ -> ());
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let router =
         Serve.Router.create ~max_models ~jobs:2 ~read_timeout_s:30.0
           ~characterize:(fun _ -> Unix.sleepf char_sleep; stub_model)
           ()
       in
       Serve.Server.run ~io_timeout_s:5.0 ~socket router
     with _ -> ());
    Unix._exit 0
  | pid ->
    let finish () =
      (try
         ignore
           (Serve.Client.call ~timeout_s:5.0 ~socket
              (J.Obj [ ("op", J.Str "shutdown") ]))
       with _ -> ());
      Core.Parallel.reap pid;
      (try Sys.remove socket with Sys_error _ -> ())
    in
    Fun.protect ~finally:finish (fun () ->
        check Alcotest.bool "daemon came up" true
          (Serve.Client.wait_ready ~timeout_s:10.0 ~socket ());
        f socket)

let estimate_req =
  J.Obj
    [ ("op", J.Str "estimate");
      ("workloads", J.Arr [ J.Str "gcd"; J.Str "des" ]) ]

let ping_req = J.Obj [ ("op", J.Str "ping") ]

(* Fork a child that makes one client call and exits 0 iff it was
   answered ok. *)
let fork_client ~socket req =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let ok =
      match Serve.Client.call ~timeout_s:30.0 ~socket req with
      | resp -> ( try as_bool (member "ok" resp) with _ -> false)
      | exception _ -> false
    in
    Unix._exit (if ok then 0 else 1)
  | pid -> pid

let test_server_cold_warm_and_metrics () =
  with_server ~max_models:1 @@ fun socket ->
  let call req = Serve.Client.call ~timeout_s:30.0 ~socket req in
  (* Cold: characterizes and simulates. *)
  let cold = call estimate_req in
  check Alcotest.bool "cold request ok" true (as_bool (member "ok" cold));
  check Alcotest.bool "cold request missed the registry" false
    (as_bool (member "registry_hit" cold));
  (* Warm: same model from memory, every profile from the cache. *)
  let warm = call estimate_req in
  check Alcotest.bool "warm request hits the registry" true
    (as_bool (member "registry_hit" warm));
  List.iter
    (fun row ->
      check Alcotest.bool "warm row served from cache" true
        (as_bool (member "cached" row)))
    (match member "results" warm with
     | J.Arr rows -> rows
     | _ -> Alcotest.fail "results is not an array");
  let energies resp =
    match member "results" resp with
    | J.Arr rows ->
      List.map (fun r -> (member "name" r, member "energy_pj" r)) rows
    | _ -> Alcotest.fail "results is not an array"
  in
  check Alcotest.bool "warm equals cold numerically" true
    (energies warm = energies cold);
  (* A second configuration exceeds --max-models 1: the first model is
     evicted, and the scrape shows it. *)
  let other =
    call
      (J.Obj
         [ ("op", J.Str "estimate");
           ("workloads", J.Arr [ J.Str "gcd" ]);
           ("config", J.Obj [ ("icache_ways", J.Num 2.0) ]) ])
  in
  check Alcotest.bool "other-config request ok" true
    (as_bool (member "ok" other));
  let scrape =
    match member "exposition" (call (J.Obj [ ("op", J.Str "metrics") ])) with
    | J.Str s -> s
    | _ -> Alcotest.fail "exposition is not a string"
  in
  List.iter
    (fun needle ->
      check Alcotest.bool ("scrape carries " ^ needle) true
        (contains scrape needle))
    [ "serve_registry_models 1"; "serve_registry_evictions_total 1";
      "serve_registry_hits_total"; "serve_requests_total";
      "eval_cache_hits_total"; "serve_connections_total";
      "serve_active_connections";
      "serve_accept_errors_total{reason=\"aborted\"} 0";
      "serve_accept_errors_total{reason=\"fd-exhausted\"} 0" ];
  check Alcotest.bool "exposition terminated" true
    (Filename.check_suffix scrape "# EOF\n");
  (* Malformed traffic gets an error response, not a dead daemon. *)
  let bad = call (J.Obj [ ("op", J.Str "nosuchop") ]) in
  check Alcotest.bool "unknown op refused" false (as_bool (member "ok" bad));
  let bad = call (J.Obj [ ("op", J.Str "estimate") ]) in
  check Alcotest.bool "missing workloads refused" false
    (as_bool (member "ok" bad));
  check Alcotest.bool "daemon still alive" true
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "ping") ]))))

let test_server_single_flight () =
  with_server ~max_models:2 @@ fun socket ->
  (* Two clients race to the same uncharacterized configuration (the
     stub characterization sleeps 0.3 s, so both are served
     concurrently before the first model exists).  The registry's
     per-config single-flight makes the second request wait for the
     first's result: exactly one characterization, and the waiter
     counts as a hit. *)
  let c1 = fork_client ~socket estimate_req in
  let c2 = fork_client ~socket estimate_req in
  check Alcotest.int "first client succeeded" 0 (wait_exit c1);
  check Alcotest.int "second client succeeded" 0 (wait_exit c2);
  let stats =
    Serve.Client.call ~timeout_s:10.0 ~socket (J.Obj [ ("op", J.Str "stats") ])
  in
  check Alcotest.int "exactly one characterization" 1
    (as_int (member "registry_misses" stats));
  check Alcotest.bool "the other request was a registry hit" true
    (as_int (member "registry_hits" stats) >= 1)

let test_server_concurrent_overlap () =
  (* The tentpole guarantee: a slow cold characterization on one
     connection must not block a ping on another.  The cold client is
     provably still in flight when the ping comes back. *)
  with_server ~char_sleep:0.8 ~max_models:2 @@ fun socket ->
  let cold = fork_client ~socket estimate_req in
  Unix.sleepf 0.15 (* let the cold request reach the registry *);
  let t0 = Unix.gettimeofday () in
  let ping = Serve.Client.call ~timeout_s:5.0 ~socket ping_req in
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "ping ok" true (as_bool (member "ok" ping));
  check Alcotest.bool "ping answered while characterization in flight" true
    (dt < 0.4);
  check Alcotest.bool "cold client genuinely still waiting" true
    (fst (Unix.waitpid [ Unix.WNOHANG ] cold) = 0);
  check Alcotest.int "cold client eventually succeeded" 0 (wait_exit cold)

let test_server_parallel_configs () =
  (* Single-flight is per config hash, not global: clients naming
     different configurations characterize in parallel.  Two 0.8 s
     characterizations complete in well under the 1.6 s a serialized
     registry would need. *)
  with_server ~char_sleep:0.8 ~max_models:2 @@ fun socket ->
  let gcd_req config =
    J.Obj
      (( [ ("op", J.Str "estimate"); ("workloads", J.Arr [ J.Str "gcd" ]) ]
       @ config ))
  in
  let t0 = Unix.gettimeofday () in
  let c1 = fork_client ~socket (gcd_req []) in
  let c2 =
    fork_client ~socket
      (gcd_req [ ("config", J.Obj [ ("icache_ways", J.Num 2.0) ]) ])
  in
  check Alcotest.int "default-config client succeeded" 0 (wait_exit c1);
  check Alcotest.int "other-config client succeeded" 0 (wait_exit c2);
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "characterizations overlapped" true (dt < 1.5);
  let stats =
    Serve.Client.call ~timeout_s:10.0 ~socket (J.Obj [ ("op", J.Str "stats") ])
  in
  check Alcotest.int "two characterizations" 2
    (as_int (member "registry_misses" stats))

let test_server_wedged_client_liveness () =
  (* The acceptance criterion: with a client wedged mid-frame on one
     connection, other clients' pings and warm estimates still answer
     within their deadlines. *)
  with_server ~max_models:1 @@ fun socket ->
  let call req = Serve.Client.call ~timeout_s:30.0 ~socket req in
  check Alcotest.bool "warm-up ok" true (as_bool (member "ok" (call estimate_req)));
  let wedged = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect wedged (Unix.ADDR_UNIX socket);
  (* Two header bytes, then silence: the daemon's reader is now parked
     mid-frame on this connection. *)
  ignore (Unix.write_substring wedged "\x00\x00" 0 2);
  Fun.protect
    ~finally:(fun () -> try Unix.close wedged with Unix.Unix_error _ -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let ping = Serve.Client.call ~timeout_s:2.0 ~socket ping_req in
  check Alcotest.bool "ping ok behind a wedged client" true
    (as_bool (member "ok" ping));
  let warm = Serve.Client.call ~timeout_s:2.0 ~socket estimate_req in
  check Alcotest.bool "warm estimate ok behind a wedged client" true
    (as_bool (member "ok" warm));
  check Alcotest.bool "estimate stayed warm" true
    (as_bool (member "registry_hit" warm));
  check Alcotest.bool "both answered within their deadlines" true
    (Unix.gettimeofday () -. t0 < 2.0)

let test_server_hangup_mid_response () =
  (* Clients that send a request and hang up without reading: the
     daemon's answer lands on a closed socket (EPIPE).  With SIGPIPE
     ignored that is a per-connection warning, not daemon death. *)
  with_server ~max_models:1 @@ fun socket ->
  let call req = Serve.Client.call ~timeout_s:30.0 ~socket req in
  check Alcotest.bool "warm-up ok" true (as_bool (member "ok" (call estimate_req)));
  for _ = 1 to 3 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Serve.Protocol.write_frame fd (Serve.Protocol.json_to_string estimate_req);
    Unix.close fd
  done;
  Unix.sleepf 0.2;
  check Alcotest.bool "daemon survived mid-response hangups" true
    (as_bool (member "ok" (call ping_req)))

let test_server_half_close () =
  (* A client that shuts down its write side after the request must
     still get its answer — half-close is how one-shot scripted
     clients signal "that was everything". *)
  with_server ~max_models:1 @@ fun socket ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Serve.Protocol.write_frame fd (Serve.Protocol.json_to_string ping_req);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd with
   | Some payload ->
     check Alcotest.bool "half-closed ping answered" true
       (as_bool (member "ok" (J.parse payload)))
   | None -> Alcotest.fail "no response after half-close");
  (* After the answer the daemon sees our EOF and closes cleanly. *)
  check
    Alcotest.(option string)
    "clean EOF after the answer" None
    (Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd);
  Unix.close fd;
  check Alcotest.bool "daemon still alive" true
    (as_bool
       (member "ok" (Serve.Client.call ~timeout_s:5.0 ~socket ping_req)))

let test_client_session_reuse () =
  (* One connected session carries many calls; the daemon counts them
     all, so a batch observably amortizes the connect. *)
  with_server ~max_models:1 @@ fun socket ->
  Serve.Client.with_session ~socket @@ fun s ->
  let stats_req = J.Obj [ ("op", J.Str "stats") ] in
  let scall req = Serve.Client.session_call ~timeout_s:5.0 s req in
  check Alcotest.bool "first call ok" true (as_bool (member "ok" (scall ping_req)));
  let n1 = as_int (member "requests" (scall stats_req)) in
  check Alcotest.bool "third call ok on the same connection" true
    (as_bool (member "ok" (scall ping_req)));
  let n2 = as_int (member "requests" (scall stats_req)) in
  check Alcotest.int "every call counted on one connection" 2 (n2 - n1)

let test_server_trace_ids_per_session () =
  with_server ~max_models:1 @@ fun socket ->
  (* Two concurrent connections, calls interleaved: the daemon mints a
     fresh trace id per request, and the per-thread context scoping
     means neither session ever sees the other's ids. *)
  let ids = ref [] in
  Serve.Client.with_session ~socket (fun a ->
      Serve.Client.with_session ~socket (fun b ->
          for _ = 1 to 3 do
            List.iter
              (fun s ->
                match Serve.Client.session_call ~timeout_s:5.0 s ping_req with
                | J.Obj fields -> (
                  match List.assoc_opt "trace_id" fields with
                  | Some (J.Str id) -> ids := id :: !ids
                  | _ -> Alcotest.fail "response lacks trace_id")
                | _ -> Alcotest.fail "response is not an object")
              [ a; b ]
          done));
  check Alcotest.int "every request got its own trace id" 6
    (List.length (List.sort_uniq compare !ids));
  (* With client-side tracing on, the client stamps its ids into the
     request, records the round trip as a client:call span, and the
     daemon adopts the ids — one trace end to end. *)
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
  @@ fun () ->
  let resp = Serve.Client.call ~timeout_s:5.0 ~socket ping_req in
  let echoed =
    match member "trace_id" resp with
    | J.Str s -> s
    | _ -> Alcotest.fail "traced call lost its trace_id"
  in
  match
    List.find_opt
      (fun e -> e.Obs.Trace.ev_name = "client:call")
      (Obs.Trace.events ())
  with
  | Some e -> (
    (match List.assoc_opt "trace_id" e.Obs.Trace.ev_args with
    | Some (Obs.Trace.S s) ->
      check Alcotest.string "daemon adopted the client's trace id" s echoed
    | _ -> Alcotest.fail "client:call span carries no trace_id");
    (* A trace id inherited from a caller's context that needs JSON
       escaping still reaches the daemon intact. *)
    let odd = "q\"uo\\te" in
    let resp =
      Obs.Trace.with_context
        { Obs.Trace.trace_id = odd; span_id = Obs.Trace.new_id (); parent_id = None }
        (fun () -> Serve.Client.call ~timeout_s:5.0 ~socket ping_req)
    in
    check Alcotest.string "escaped trace id round-trips" odd
      (match member "trace_id" resp with J.Str s -> s | _ -> ""))
  | None -> Alcotest.fail "no client:call span recorded"

let test_server_socket_steal_refused () =
  (* A second daemon pointed at a live daemon's socket must refuse to
     start — and must not unlink the live socket on its way out. *)
  with_server ~max_models:1 @@ fun socket ->
  flush stdout;
  flush stderr;
  (match Unix.fork () with
   | 0 ->
     let code =
       try
         let router =
           Serve.Router.create ~max_models:1 ~jobs:2
             ~characterize:(fun _ -> stub_model)
             ()
         in
         let c =
           try
             Serve.Server.run ~io_timeout_s:5.0 ~socket router;
             3
           with
           | Unix.Unix_error (Unix.EADDRINUSE, _, _) -> 42
           | _ -> 4
         in
         Serve.Router.shutdown router;
         c
       with _ -> 5
     in
     Unix._exit code
   | pid ->
     check Alcotest.int "second daemon refused with EADDRINUSE" 42
       (wait_exit pid));
  check Alcotest.bool "live daemon undisturbed" true
    (as_bool
       (member "ok" (Serve.Client.call ~timeout_s:5.0 ~socket ping_req)))

let test_server_stale_socket_replaced () =
  (* A socket file left by a daemon that died without cleanup must not
     block the next start: nobody answers on it, so it is replaced. *)
  let socket = scratch_socket "serve_stale" in
  (try Sys.remove socket with Sys_error _ -> ());
  let corpse = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind corpse (Unix.ADDR_UNIX socket);
  Unix.listen corpse 1;
  Unix.close corpse (* dies without unlinking *);
  check Alcotest.bool "corpse left behind" true (Sys.file_exists socket);
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let router =
         Serve.Router.create ~max_models:1 ~jobs:2
           ~characterize:(fun _ -> stub_model)
           ()
       in
       Serve.Server.run ~io_timeout_s:5.0 ~socket router
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    let finish () =
      Core.Parallel.reap pid;
      (try Sys.remove socket with Sys_error _ -> ())
    in
    Fun.protect ~finally:finish @@ fun () ->
    check Alcotest.bool "daemon replaced the stale socket" true
      (Serve.Client.wait_ready ~timeout_s:10.0 ~socket ());
    let resp =
      Serve.Client.call ~timeout_s:5.0 ~socket
        (J.Obj [ ("op", J.Str "shutdown") ])
    in
    check Alcotest.bool "shutdown acknowledged" true
      (as_bool (member "ok" resp))

let test_server_shutdown_cleanup () =
  let socket = scratch_socket "serve_down" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let router =
         Serve.Router.create ~max_models:1 ~jobs:2
           ~characterize:(fun _ -> stub_model)
           ()
       in
       Serve.Server.run ~io_timeout_s:5.0 ~socket router
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    check Alcotest.bool "daemon came up" true
      (Serve.Client.wait_ready ~timeout_s:10.0 ~socket ());
    let resp =
      Serve.Client.call ~timeout_s:5.0 ~socket
        (J.Obj [ ("op", J.Str "shutdown") ])
    in
    check Alcotest.bool "shutdown acknowledged" true
      (as_bool (member "ok" resp));
    let code =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED c -> c
      | _ -> 255
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> 255
    in
    check Alcotest.int "daemon exited cleanly" 0 code;
    check Alcotest.bool "socket file removed" false (Sys.file_exists socket)

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncation + oversize" `Quick
            test_frame_truncation_and_oversize;
          Alcotest.test_case "read deadline" `Quick test_frame_read_deadline;
          Alcotest.test_case "write deadline" `Quick test_frame_write_deadline;
          Alcotest.test_case "json print round-trip" `Quick
            test_json_print_roundtrip ] );
      ( "registry",
        [ Alcotest.test_case "hit + LRU eviction" `Quick
            test_registry_hit_and_eviction ] );
      ( "router",
        [ Alcotest.test_case "profile op" `Quick test_router_profile_op;
          Alcotest.test_case "explore op" `Slow test_router_explore_op;
          Alcotest.test_case "latency-shaped request buckets" `Quick
            test_request_seconds_buckets;
          Alcotest.test_case "memoized eval-cache keys" `Quick
            test_router_memo_keys;
          Alcotest.test_case "timings + trace ids" `Quick
            test_router_timings_and_trace;
          Alcotest.test_case "status op" `Quick test_router_status_op;
          Alcotest.test_case "slow-request log" `Quick
            test_router_slow_request_log ] );
      ( "daemon",
        [ Alcotest.test_case "cold/warm + metrics" `Slow
            test_server_cold_warm_and_metrics;
          Alcotest.test_case "single-flight characterization" `Slow
            test_server_single_flight;
          Alcotest.test_case "concurrent connections overlap" `Slow
            test_server_concurrent_overlap;
          Alcotest.test_case "parallel distinct-config characterization" `Slow
            test_server_parallel_configs;
          Alcotest.test_case "wedged client starves nobody" `Slow
            test_server_wedged_client_liveness;
          Alcotest.test_case "mid-response hangup survived" `Slow
            test_server_hangup_mid_response;
          Alcotest.test_case "half-close still answered" `Slow
            test_server_half_close;
          Alcotest.test_case "session reuse" `Slow test_client_session_reuse;
          Alcotest.test_case "per-session trace ids" `Slow
            test_server_trace_ids_per_session;
          Alcotest.test_case "socket steal refused" `Slow
            test_server_socket_steal_refused;
          Alcotest.test_case "stale socket replaced" `Quick
            test_server_stale_socket_replaced;
          Alcotest.test_case "shutdown cleanup" `Quick
            test_server_shutdown_cleanup ] ) ]
