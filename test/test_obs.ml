(* Tests for the observability substrate: metrics registry, trace
   recorder (Chrome trace-event export), waveform accumulator and the
   minimal JSON parser used for round-trips.  Metrics and Trace are
   process-global, so every test restores the disabled default. *)

let check = Alcotest.check
let fail = Alcotest.fail

let with_obs f =
  Obs.Metrics.set_enabled true;
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
    f

(* --- Json ------------------------------------------------------------------ *)

let test_json_parse () =
  let j =
    Obs.Json.parse
      {|{"a": 1, "b": [true, false, null], "c": {"d": "x\n\"y\""}, "e": -2.5e2}|}
  in
  check (Alcotest.float 1e-9) "int" 1.0 Obs.Json.(to_float (member "a" j));
  check Alcotest.int "array length" 3
    (List.length Obs.Json.(to_list (member "b" j)));
  check Alcotest.string "escapes" "x\n\"y\""
    Obs.Json.(to_str (member "d" (member "c" j)));
  check (Alcotest.float 1e-9) "exponent" (-250.0)
    Obs.Json.(to_float (member "e" j));
  (match Obs.Json.parse "{\"a\": 1} garbage" with
   | exception Obs.Json.Parse_error _ -> ()
   | _ -> fail "trailing garbage accepted");
  match Obs.Json.parse "{\"a\":" with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> fail "truncated document accepted"

let test_json_edge_cases () =
  (* \u escapes across all three UTF-8 encoding lengths. *)
  let j = Obs.Json.parse "{\"s\": \"\\u0041\\n\\u00e9\\u20ac\"}" in
  check Alcotest.string "unicode escapes" "A\n\xc3\xa9\xe2\x82\xac"
    Obs.Json.(to_str (member "s" j));
  (* Deep nesting round-trips without blowing the parser up. *)
  let depth = 200 in
  let doc =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "42"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  let rec unwrap n v =
    if n = 0 then v
    else match Obs.Json.to_list v with
      | [ inner ] -> unwrap (n - 1) inner
      | _ -> fail "deep nesting lost elements"
  in
  check Alcotest.int "deep nesting" 42
    (Obs.Json.to_int (unwrap depth (Obs.Json.parse doc)));
  (* Exponent spellings. *)
  let j = Obs.Json.parse {|{"a": 1e3, "b": -2.5E-2, "c": 0.25e+1}|} in
  check (Alcotest.float 1e-12) "e" 1000.0 Obs.Json.(to_float (member "a" j));
  check (Alcotest.float 1e-12) "E-" (-0.025) Obs.Json.(to_float (member "b" j));
  check (Alcotest.float 1e-12) "e+" 2.5 Obs.Json.(to_float (member "c" j));
  (* Empty containers parse; trailing garbage in every position rejects. *)
  check Alcotest.int "empty array" 0
    (List.length (Obs.Json.to_list (Obs.Json.parse "[]")));
  (match Obs.Json.parse "{}" with
   | Obs.Json.Obj [] -> ()
   | _ -> fail "empty object misparsed");
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> fail (Printf.sprintf "accepted malformed %S" s))
    [ "[] []"; "1 2"; "{\"a\": 1}x"; "\"s\" \"t\""; "[1,]"; "{\"a\" 1}";
      "nul"; "01x" ]

(* --- Metrics ---------------------------------------------------------------- *)

let test_metrics_disabled_is_noop () =
  Obs.Metrics.set_enabled false;
  let c = Obs.Metrics.counter "test_noop_total" in
  let before = Obs.Metrics.counter_value c in
  Obs.Metrics.inc c;
  Obs.Metrics.inc ~by:10 c;
  check Alcotest.int "disabled counter unchanged" before
    (Obs.Metrics.counter_value c)

let test_metrics_counter_and_labels () =
  with_obs (fun () ->
      let a = Obs.Metrics.counter ~labels:[ ("k", "a") ] "test_lbl_total" in
      let b = Obs.Metrics.counter ~labels:[ ("k", "b") ] "test_lbl_total" in
      let v0a = Obs.Metrics.counter_value a in
      let v0b = Obs.Metrics.counter_value b in
      Obs.Metrics.inc a;
      Obs.Metrics.inc ~by:2 b;
      check Alcotest.int "label a" (v0a + 1) (Obs.Metrics.counter_value a);
      check Alcotest.int "label b" (v0b + 2) (Obs.Metrics.counter_value b);
      (* Same identity returns the same instrument. *)
      let a' = Obs.Metrics.counter ~labels:[ ("k", "a") ] "test_lbl_total" in
      Obs.Metrics.inc a';
      check Alcotest.int "same handle" (v0a + 2) (Obs.Metrics.counter_value a))

let test_metrics_histogram () =
  with_obs (fun () ->
      let h =
        Obs.Metrics.histogram ~buckets:[| 1.0; 10.0 |] "test_hist_seconds"
      in
      List.iter (Obs.Metrics.observe h) [ 0.5; 2.0; 5.0; 100.0 ];
      check Alcotest.int "count" 4 (Obs.Metrics.histogram_count h);
      check (Alcotest.float 1e-9) "sum" 107.5 (Obs.Metrics.histogram_sum h);
      (* The registry JSON parses and carries the bucket counts. *)
      let j = Obs.Json.parse (Obs.Metrics.to_json ()) in
      let metrics = Obs.Json.(to_list (member "metrics" j)) in
      let hj =
        List.find
          (fun m ->
            Obs.Json.(to_str (member "name" m)) = "test_hist_seconds")
          metrics
      in
      let counts =
        List.map
          (fun b -> Obs.Json.(to_int (member "count" b)))
          Obs.Json.(to_list (member "buckets" hj))
      in
      check (Alcotest.list Alcotest.int) "bucket counts" [ 1; 2; 1 ] counts)

let test_metrics_snapshot_merge () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter "test_merge_total" in
      Obs.Metrics.inc ~by:3 c;
      let snap = Obs.Metrics.snapshot () in
      Obs.Metrics.merge snap;
      (* Counters add on merge: 3 own + 3 from the snapshot. *)
      check Alcotest.int "merged counter" 6 (Obs.Metrics.counter_value c))

let test_metrics_snapshot_diff () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter "test_diff_total" in
      let g = Obs.Metrics.gauge "test_diff_gauge" in
      let h =
        Obs.Metrics.histogram ~buckets:[| 1.0 |] "test_diff_seconds"
      in
      Obs.Metrics.inc ~by:2 c;
      Obs.Metrics.set g 1.0;
      Obs.Metrics.observe h 0.5;
      let earlier = Obs.Metrics.snapshot () in
      Obs.Metrics.inc ~by:5 c;
      Obs.Metrics.set g 9.0;
      Obs.Metrics.observe h 3.0;
      let later = Obs.Metrics.snapshot () in
      let d = Obs.Metrics.snapshot_diff later earlier in
      let find n =
        let _, _, _, v = List.find (fun (n', _, _, _) -> n' = n) d in
        v
      in
      (match find "test_diff_total" with
       | Obs.Metrics.S_counter 5 -> ()
       | Obs.Metrics.S_counter n ->
         fail (Printf.sprintf "counter delta %d, want 5" n)
       | _ -> fail "counter row lost its type");
      (match find "test_diff_gauge" with
       | Obs.Metrics.S_gauge v ->
         check (Alcotest.float 1e-9) "gauge keeps later" 9.0 v
       | _ -> fail "gauge row lost its type");
      match find "test_diff_seconds" with
      | Obs.Metrics.S_histogram (_, counts, sum, count) ->
        check Alcotest.int "histogram count delta" 1 count;
        check (Alcotest.float 1e-9) "histogram sum delta" 3.0 sum;
        check (Alcotest.list Alcotest.int) "bucket deltas" [ 0; 1 ]
          (Array.to_list counts)
      | _ -> fail "histogram row lost its type")

let test_metrics_snapshot_consistency () =
  (* Concurrent observers must never yield a torn snapshot: in every
     capture the histogram's bucket counts sum to _count and (all
     observations being 1.0) _sum equals _count exactly. *)
  with_obs (fun () ->
      let h =
        Obs.Metrics.histogram ~buckets:[| 0.5; 1.5 |]
          ~labels:[ ("k", "hammer") ]
          "test_hammer_seconds"
      in
      let stop = Atomic.make false in
      let writers =
        List.init 4 (fun _ ->
            Thread.create
              (fun () ->
                while not (Atomic.get stop) do
                  Obs.Metrics.observe h 1.0
                done)
              ())
      in
      let torn = ref [] in
      for i = 1 to 200 do
        let snap = Obs.Metrics.snapshot () in
        match
          List.find_opt
            (fun (n, ls, _, _) ->
              n = "test_hammer_seconds" && ls = [ ("k", "hammer") ])
            snap
        with
        | Some (_, _, _, Obs.Metrics.S_histogram (_, counts, sum, count)) ->
          let bucket_sum = Array.fold_left ( + ) 0 counts in
          if bucket_sum <> count then
            torn := Printf.sprintf "capture %d: buckets %d vs count %d" i
                      bucket_sum count :: !torn;
          if Float.abs (sum -. float_of_int count) > 1e-6 then
            torn := Printf.sprintf "capture %d: sum %g vs count %d" i sum
                      count :: !torn
        | _ -> torn := Printf.sprintf "capture %d: row missing" i :: !torn
      done;
      Atomic.set stop true;
      List.iter Thread.join writers;
      match !torn with
      | [] -> ()
      | first :: _ ->
        fail
          (Printf.sprintf "%d torn snapshots, e.g. %s" (List.length !torn)
             first))

(* --- Export (OpenMetrics) --------------------------------------------------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_export_openmetrics () =
  with_obs (fun () ->
      let c =
        Obs.Metrics.counter ~help:"help \"quoted\"\nline"
          ~labels:[ ("k", "a\"b\\c\nd") ]
          "test_om_total"
      in
      let g = Obs.Metrics.gauge "test_om_gauge" in
      let h = Obs.Metrics.histogram ~buckets:[| 1.0; 10.0 |] "test_om_seconds" in
      Obs.Metrics.inc ~by:7 c;
      Obs.Metrics.set g 2.5;
      List.iter (Obs.Metrics.observe h) [ 0.5; 5.0; 50.0 ];
      let text = Obs.Export.to_openmetrics () in
      (* Counter family drops the _total suffix in TYPE, keeps it in the
         sample; label values escape quote/backslash/newline. *)
      List.iter
        (fun frag ->
          if not (contains text frag) then
            fail (Printf.sprintf "missing %S in exposition" frag))
        [ "# TYPE test_om counter";
          "# HELP test_om help \"quoted\"\\nline";
          "test_om_total{k=\"a\\\"b\\\\c\\nd\"} 7";
          "# TYPE test_om_gauge gauge";
          "test_om_gauge 2.5";
          "# TYPE test_om_seconds histogram";
          "test_om_seconds_bucket{le=\"1\"} 1";
          "test_om_seconds_bucket{le=\"10\"} 2";
          "test_om_seconds_bucket{le=\"+Inf\"} 3";
          "test_om_seconds_sum 55.5";
          "test_om_seconds_count 3" ];
      (* Well-formed: ends with the EOF marker, no family header twice. *)
      check Alcotest.bool "EOF terminator" true
        (Filename.check_suffix text "# EOF\n");
      let type_lines =
        String.split_on_char '\n' text
        |> List.filter (fun l -> String.length l > 7 && String.sub l 0 7 = "# TYPE ")
      in
      check Alcotest.int "one TYPE per family"
        (List.length (List.sort_uniq compare type_lines))
        (List.length type_lines))

let test_export_quantile () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  let counts = [| 2; 2; 4; 0 |] in
  let q p = Obs.Export.quantile ~bounds ~counts p in
  let check_q name want got =
    match got with
    | Some v -> check (Alcotest.float 1e-9) name want v
    | None -> fail (name ^ ": no estimate from a populated histogram")
  in
  (* rank q*total walked through per-bucket counts, interpolated inside
     the selected bucket (first bucket's lower edge is 0). *)
  check_q "median" 2.0 (q 0.5);
  check_q "q1 at a bucket edge" 1.0 (q 0.25);
  check_q "interpolates inside a bucket" 0.5 (q 0.125);
  check_q "max lands on the last bound" 4.0 (q 1.0);
  (* Ranks in the +Inf bucket report the last finite bound (the
     Prometheus histogram_quantile convention). *)
  check_q "+Inf bucket clamps to last bound" 4.0
    (Obs.Export.quantile ~bounds ~counts:[| 0; 0; 0; 5 |] 0.9);
  (* No finite bounds at all: nothing to interpolate against. *)
  check_q "no finite bounds reports 0" 0.0
    (Obs.Export.quantile ~bounds:[||] ~counts:[| 3 |] 0.5);
  check Alcotest.bool "empty histogram is None" true
    (Obs.Export.quantile ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5 = None);
  (match Obs.Export.quantile ~bounds ~counts 2.0 with
   | exception Invalid_argument _ -> ()
   | _ -> fail "q outside [0, 1] accepted");
  (match Obs.Export.quantile ~bounds ~counts Float.nan with
   | exception Invalid_argument _ -> ()
   | _ -> fail "NaN q accepted");
  match Obs.Export.quantile ~bounds ~counts:[| 1; 2 |] 0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "shape mismatch accepted"

let test_export_snapshot_quantile () =
  with_obs (fun () ->
      let h =
        Obs.Metrics.histogram ~buckets:[| 0.1; 1.0 |]
          ~labels:[ ("op", "x"); ("k", "v") ]
          "test_snapq_seconds"
      in
      List.iter (Obs.Metrics.observe h) [ 0.05; 0.05; 0.5; 0.5 ];
      let snap = Obs.Metrics.snapshot () in
      (* Label lookup is order-insensitive. *)
      (match
         Obs.Export.snapshot_quantile snap ~name:"test_snapq_seconds"
           ~labels:[ ("k", "v"); ("op", "x") ] 0.5
       with
       | Some v -> check (Alcotest.float 1e-9) "median from snapshot" 0.1 v
       | None -> fail "labelled histogram row not found");
      check Alcotest.bool "absent name is None" true
        (Obs.Export.snapshot_quantile snap ~name:"test_snapq_nosuch" 0.5
         = None);
      check Alcotest.bool "label mismatch is None" true
        (Obs.Export.snapshot_quantile snap ~name:"test_snapq_seconds"
           ~labels:[ ("op", "y") ] 0.5
         = None))

let test_export_snapshot_delta () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter "test_om_delta_total" in
      Obs.Metrics.inc ~by:3 c;
      let earlier = Obs.Metrics.snapshot () in
      Obs.Metrics.inc ~by:4 c;
      let later = Obs.Metrics.snapshot () in
      let text =
        Obs.Export.to_openmetrics
          ~snapshot:(Obs.Metrics.snapshot_diff later earlier) ()
      in
      if not (contains text "test_om_delta_total 4") then
        fail "delta exposition should carry only the between-scrape delta")

(* --- Log -------------------------------------------------------------------- *)

let with_log_file f =
  let path = Filename.temp_file "xenergy-test-log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close ();
      Obs.Log.set_level Obs.Log.Debug;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_records path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map Obs.Json.parse

let test_log_records () =
  with_log_file (fun path ->
      Obs.Log.open_file path;
      check Alcotest.bool "enabled" true (Obs.Log.enabled ());
      Obs.Log.event "test:one"
        [ ("s", Obs.Trace.S "a\"b\nc"); ("i", Obs.Trace.I 42);
          ("f", Obs.Trace.F 2.5); ("b", Obs.Trace.B true);
          ("nan", Obs.Trace.F Float.nan) ];
      Obs.Log.event ~level:Obs.Log.Error "test:two" [];
      Obs.Log.close ();
      check Alcotest.bool "disabled after close" false (Obs.Log.enabled ());
      Obs.Log.event "test:dropped" [];
      match read_records path with
      | [ one; two ] ->
        check Alcotest.string "event name" "test:one"
          Obs.Json.(to_str (member "event" one));
        check Alcotest.string "level" "info"
          Obs.Json.(to_str (member "level" one));
        check Alcotest.bool "tid present" true
          (Obs.Json.(to_int (member "tid" one)) >= 0);
        check Alcotest.int "pid" (Unix.getpid ())
          Obs.Json.(to_int (member "pid" one));
        check Alcotest.bool "ts present" true
          (Obs.Json.(to_float (member "ts_us" one)) >= 0.0);
        check Alcotest.string "string field escaped" "a\"b\nc"
          Obs.Json.(to_str (member "s" one));
        check Alcotest.int "int field" 42 Obs.Json.(to_int (member "i" one));
        check (Alcotest.float 1e-9) "float field" 2.5
          Obs.Json.(to_float (member "f" one));
        (match Obs.Json.member "b" one with
         | Obs.Json.Bool true -> ()
         | _ -> fail "bool field lost");
        (* Non-finite floats have no JSON spelling: recorded as null so
           the line stays parseable. *)
        (match Obs.Json.member "nan" one with
         | Obs.Json.Null -> ()
         | _ -> fail "NaN should serialize as null");
        check Alcotest.string "error level" "error"
          Obs.Json.(to_str (member "level" two))
      | l -> fail (Printf.sprintf "%d records, want 2" (List.length l)))

let test_log_level_floor () =
  with_log_file (fun path ->
      Obs.Log.open_file ~level:Obs.Log.Warn path;
      Obs.Log.event ~level:Obs.Log.Debug "test:debug" [];
      Obs.Log.event ~level:Obs.Log.Info "test:info" [];
      Obs.Log.event ~level:Obs.Log.Warn "test:warn" [];
      Obs.Log.event ~level:Obs.Log.Error "test:error" [];
      Obs.Log.close ();
      let names =
        List.map
          (fun r -> Obs.Json.(to_str (member "event" r)))
          (read_records path)
      in
      check (Alcotest.list Alcotest.string) "only warn and above"
        [ "test:warn"; "test:error" ] names;
      check Alcotest.bool "level round trip" true
        (List.for_all
           (fun l ->
             Obs.Log.level_of_string (Obs.Log.level_to_string l) = Some l)
           [ Obs.Log.Debug; Obs.Log.Info; Obs.Log.Warn; Obs.Log.Error ]))

let test_log_rotation () =
  with_log_file (fun path ->
      Obs.Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.set_enabled false;
          try Sys.remove (path ^ ".1") with Sys_error _ -> ())
      @@ fun () ->
      Obs.Log.open_file ~max_bytes:512 path;
      for i = 1 to 40 do
        Obs.Log.event "test:rotate"
          [ ("i", Obs.Trace.I i); ("pad", Obs.Trace.S (String.make 64 'x')) ]
      done;
      Obs.Log.close ();
      check Alcotest.bool "rotated sink exists" true
        (Sys.file_exists (path ^ ".1"));
      (* The rotation happens before the write that would cross the cap,
         so neither file ever exceeds it. *)
      check Alcotest.bool "live file within the cap" true
        ((Unix.stat path).Unix.st_size <= 512);
      check Alcotest.bool "rotated file within the cap" true
        ((Unix.stat (path ^ ".1")).Unix.st_size <= 512);
      (* Whole lines only on both sides of the rename: everything still
         parses, and together the files hold the newest records. *)
      let r1 = read_records (path ^ ".1") in
      let r0 = read_records path in
      check Alcotest.bool "records on both sides" true (r0 <> [] && r1 <> []);
      let last = List.nth r0 (List.length r0 - 1) in
      check Alcotest.int "newest record in the live file" 40
        Obs.Json.(to_int (member "i" last));
      match
        List.find_opt
          (fun (n, _, _, _) -> n = "log_rotations_total")
          (Obs.Metrics.snapshot ())
      with
      | Some (_, _, _, Obs.Metrics.S_counter n) ->
        check Alcotest.bool "rotations counted" true (n >= 1)
      | _ -> fail "log_rotations_total not registered")

(* --- Trace ------------------------------------------------------------------ *)

let test_trace_disabled_records_nothing () =
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  let r = Obs.Trace.with_span "quiet" (fun () -> 42) in
  check Alcotest.int "value returned" 42 r;
  check Alcotest.int "no events" 0 (List.length (Obs.Trace.events ()))

let test_trace_spans_and_json () =
  with_obs (fun () ->
      let r =
        Obs.Trace.with_span ~cat:"t" "outer" (fun () ->
            Obs.Trace.with_span ~cat:"t" "inner" (fun () -> ());
            7)
      in
      check Alcotest.int "value returned" 7 r;
      Obs.Trace.thread_name ~tid:3 "worker 3";
      (match Obs.Trace.with_span "raiser" (fun () -> failwith "x") with
       | exception Failure _ -> ()
       | _ -> fail "exception swallowed");
      let j = Obs.Json.parse (Obs.Trace.to_json (Obs.Trace.events ())) in
      let evs = Obs.Json.(to_list (member "traceEvents" j)) in
      let name e = Obs.Json.(to_str (member "name" e)) in
      let names = List.map name evs in
      List.iter
        (fun n ->
          if not (List.mem n names) then fail (Printf.sprintf "missing %s" n))
        [ "outer"; "inner"; "raiser"; "thread_name" ];
      (* Inner completes before outer, so it is recorded first; both carry
         durations and the default tid 0. *)
      let inner = List.find (fun e -> name e = "inner") evs in
      let outer = List.find (fun e -> name e = "outer") evs in
      check Alcotest.int "tid" 0 Obs.Json.(to_int (member "tid" inner));
      check Alcotest.bool "outer encloses inner" true
        (Obs.Json.(to_float (member "ts" outer))
         <= Obs.Json.(to_float (member "ts" inner))
         && Obs.Json.(to_float (member "dur" outer))
            >= Obs.Json.(to_float (member "dur" inner))))

let test_trace_emit_all_preserves_lanes () =
  with_obs (fun () ->
      Obs.Trace.set_tid 5;
      Obs.Trace.with_span "foreign" (fun () -> ());
      Obs.Trace.set_tid 0;
      let shipped = Obs.Trace.drain () in
      check Alcotest.int "drained" 1 (List.length shipped);
      check Alcotest.int "cleared" 0 (List.length (Obs.Trace.events ()));
      Obs.Trace.emit_all shipped;
      match Obs.Trace.events () with
      | [ e ] -> check Alcotest.int "lane kept" 5 e.Obs.Trace.ev_tid
      | l -> fail (Printf.sprintf "%d events after emit_all" (List.length l)))

let sarg name e =
  match List.assoc_opt name e.Obs.Trace.ev_args with
  | Some (Obs.Trace.S s) -> Some s
  | _ -> None

let test_trace_context_ids () =
  (* Ids are fresh, well-formed hex and never collide in bulk. *)
  let ids = List.init 1000 (fun _ -> Obs.Trace.new_id ()) in
  check Alcotest.int "ids unique" 1000
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      check Alcotest.int "16 hex digits" 16 (String.length id);
      String.iter
        (fun c ->
          if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
            fail (Printf.sprintf "non-hex id %S" id))
        id)
    ids

let test_trace_context_spans () =
  with_obs (fun () ->
      check Alcotest.bool "no ambient context" true
        (Obs.Trace.context () = None);
      (* Without a context, spans carry no ids. *)
      Obs.Trace.with_span "bare" (fun () -> ());
      (match Obs.Trace.events () with
       | [ e ] -> check Alcotest.bool "bare span unstamped" true
                    (sarg "trace_id" e = None)
       | _ -> fail "expected one event");
      Obs.Trace.clear ();
      let root =
        { Obs.Trace.trace_id = Obs.Trace.new_id ();
          span_id = Obs.Trace.new_id ();
          parent_id = None }
      in
      Obs.Trace.with_context root (fun () ->
          Obs.Trace.with_span "outer" (fun () ->
              Obs.Trace.with_span "inner" (fun () -> ());
              Obs.Trace.instant "mark"));
      check Alcotest.bool "context restored after with_context" true
        (Obs.Trace.context () = None);
      let evs = Obs.Trace.events () in
      let find name =
        match List.find_opt (fun e -> e.Obs.Trace.ev_name = name) evs with
        | Some e -> e
        | None -> fail (Printf.sprintf "span %s missing" name)
      in
      let outer = find "outer" and inner = find "inner" in
      (* One trace id end to end; span ids chain parent -> child. *)
      check (Alcotest.option Alcotest.string) "outer shares the trace id"
        (Some root.Obs.Trace.trace_id) (sarg "trace_id" outer);
      check (Alcotest.option Alcotest.string) "inner shares the trace id"
        (Some root.Obs.Trace.trace_id) (sarg "trace_id" inner);
      check (Alcotest.option Alcotest.string) "outer is a child of the root"
        (Some root.Obs.Trace.span_id) (sarg "parent_id" outer);
      check (Alcotest.option Alcotest.string) "inner is a child of outer"
        (sarg "span_id" outer) (sarg "parent_id" inner);
      check Alcotest.bool "span ids distinct" true
        (sarg "span_id" outer <> sarg "span_id" inner);
      (* The instant inside outer is stamped with outer's child scope. *)
      check (Alcotest.option Alcotest.string) "instant shares the trace id"
        (Some root.Obs.Trace.trace_id) (sarg "trace_id" (find "mark")))

let test_trace_context_scopes () =
  (* Contexts are slotted by the installed scope key: two scopes hold
     independent contexts, and clearing one leaves the other. *)
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_context_key (fun () -> 0);
      Obs.Trace.set_context None)
  @@ fun () ->
  let scope = ref 1 in
  Obs.Trace.set_context_key (fun () -> !scope);
  let ctx n =
    { Obs.Trace.trace_id = n; span_id = n; parent_id = None }
  in
  scope := 1;
  Obs.Trace.set_context (Some (ctx "one"));
  scope := 2;
  Obs.Trace.set_context (Some (ctx "two"));
  check Alcotest.bool "scope 2 sees its own context" true
    (match Obs.Trace.context () with
     | Some c -> c.Obs.Trace.trace_id = "two"
     | None -> false);
  scope := 1;
  check Alcotest.bool "scope 1 undisturbed" true
    (match Obs.Trace.context () with
     | Some c -> c.Obs.Trace.trace_id = "one"
     | None -> false);
  Obs.Trace.set_context None;
  check Alcotest.bool "scope 1 cleared" true (Obs.Trace.context () = None);
  scope := 2;
  check Alcotest.bool "scope 2 still set" true
    (Obs.Trace.context () <> None);
  Obs.Trace.set_context None

(* --- Waveform ---------------------------------------------------------------- *)

let test_waveform_buckets () =
  let w = Obs.Waveform.create ~bucket_cycles:10 () in
  Obs.Waveform.add w ~cycle:0 ~energy_pj:1.0;
  Obs.Waveform.add w ~cycle:9 ~energy_pj:2.0;
  Obs.Waveform.add w ~cycle:10 ~energy_pj:4.0;
  Obs.Waveform.add w ~cycle:995 ~energy_pj:8.0;    (* forces growth *)
  check (Alcotest.float 1e-9) "total" 15.0 (Obs.Waveform.total_pj w);
  let bs = Obs.Waveform.buckets w in
  check Alcotest.int "buckets up to last touched" 100 (Array.length bs);
  check (Alcotest.float 1e-9) "bucket 0 accumulates" 3.0 (snd bs.(0));
  check (Alcotest.float 1e-9) "bucket 1" 4.0 (snd bs.(1));
  check (Alcotest.float 1e-9) "bucket 99" 8.0 (snd bs.(99));
  check Alcotest.int "bucket start cycle" 990 (fst bs.(99));
  let j = Obs.Json.parse (Obs.Waveform.to_json w) in
  check Alcotest.int "json bucket width" 10
    Obs.Json.(to_int (member "bucket_cycles" j));
  check Alcotest.string "unit stated" "pJ"
    Obs.Json.(to_str (member "unit" j))

let test_waveform_bucket_edges () =
  let w = Obs.Waveform.create ~bucket_cycles:10 () in
  (* A cycle exactly on a bucket boundary opens the next bucket; it
     never splits or double-counts. *)
  Obs.Waveform.add w ~cycle:10 ~energy_pj:1.0;
  Obs.Waveform.add w ~cycle:19 ~energy_pj:2.0;
  Obs.Waveform.add w ~cycle:20 ~energy_pj:4.0;
  let bs = Obs.Waveform.buckets w in
  check Alcotest.int "buckets up to last touched" 3 (Array.length bs);
  check (Alcotest.float 1e-9) "bucket 0 untouched" 0.0 (snd bs.(0));
  check Alcotest.int "edge bucket starts at its cycle" 10 (fst bs.(1));
  check (Alcotest.float 1e-9) "edge event opens its own bucket" 3.0
    (snd bs.(1));
  check (Alcotest.float 1e-9) "next boundary likewise" 4.0 (snd bs.(2));
  check (Alcotest.float 1e-9) "total conserves" 7.0 (Obs.Waveform.total_pj w);
  (* Negative cycles clamp to bucket 0 rather than crashing. *)
  Obs.Waveform.add w ~cycle:(-5) ~energy_pj:8.0;
  check (Alcotest.float 1e-9) "negative cycle clamps to bucket 0" 8.0
    (snd (Obs.Waveform.buckets w).(0))

let test_waveform_zero_cycles () =
  (* A zero-cycle program touches no bucket; every renderer must still
     produce well-formed output. *)
  let w = Obs.Waveform.create () in
  check Alcotest.int "no buckets" 0 (Array.length (Obs.Waveform.buckets w));
  check (Alcotest.float 0.0) "zero total" 0.0 (Obs.Waveform.total_pj w);
  let j = Obs.Json.parse (Obs.Waveform.to_json w) in
  check Alcotest.int "json: empty bucket list" 0
    (List.length Obs.Json.(to_list (member "buckets" j)));
  check Alcotest.bool "empty waveform named" true
    (contains (Format.asprintf "%a" Obs.Waveform.pp w) "empty waveform");
  (* reset returns a used accumulator to exactly this state. *)
  Obs.Waveform.add w ~cycle:0 ~energy_pj:1.0;
  Obs.Waveform.reset w;
  check Alcotest.int "reset drops every bucket" 0
    (Array.length (Obs.Waveform.buckets w));
  check (Alcotest.float 0.0) "reset zeroes the total" 0.0
    (Obs.Waveform.total_pj w)

(* --- Profile ----------------------------------------------------------------- *)

let test_profile_slots () =
  let p = Obs.Profile.create () in
  check Alcotest.int "starts empty" 0 (Obs.Profile.cardinal p);
  Obs.Profile.record p ~energy_pj:1.5 ~cycles:2 7;
  Obs.Profile.record p ~stall_cycles:1 ~icache_miss:true ~cycles:3 7;
  Obs.Profile.record p ~dcache_miss:true ~energy_pj:0.5 ~cycles:5 9;
  check Alcotest.int "two slots" 2 (Obs.Profile.cardinal p);
  (match Obs.Profile.find p 7 with
   | Some s ->
     check Alcotest.int "hits accumulate" 2 s.Obs.Profile.hits;
     check Alcotest.int "cycles accumulate" 5 s.Obs.Profile.cycles;
     check Alcotest.int "stalls accumulate" 1 s.Obs.Profile.stall_cycles;
     check Alcotest.int "icache miss counted" 1 s.Obs.Profile.icache_misses;
     check Alcotest.int "no dcache miss here" 0 s.Obs.Profile.dcache_misses;
     check (Alcotest.float 1e-9) "energy accumulates" 1.5
       s.Obs.Profile.energy_pj
   | None -> fail "slot 7 missing");
  check Alcotest.bool "absent slot is None" true (Obs.Profile.find p 8 = None);
  let t = Obs.Profile.totals p in
  check Alcotest.int "total hits" 3 t.Obs.Profile.hits;
  check Alcotest.int "total cycles" 10 t.Obs.Profile.cycles;
  check Alcotest.int "total dcache misses" 1 t.Obs.Profile.dcache_misses;
  check (Alcotest.float 1e-9) "total energy" 2.0 t.Obs.Profile.energy_pj;
  check Alcotest.int "fold covers every slot" 10
    (Obs.Profile.fold (fun _ s acc -> acc + s.Obs.Profile.cycles) p 0);
  Obs.Profile.reset p;
  check Alcotest.int "reset empties" 0 (Obs.Profile.cardinal p)

let test_profile_stacks () =
  let s = Obs.Profile.Stacks.create ~max_depth:1 ~root:"main" () in
  check Alcotest.int "depth at root" 0 (Obs.Profile.Stacks.depth s);
  Obs.Profile.Stacks.record s ~cycles:1 ~energy_pj:0.5;
  Obs.Profile.Stacks.push s "f";
  check Alcotest.int "depth after push" 1 (Obs.Profile.Stacks.depth s);
  Obs.Profile.Stacks.record s ~cycles:2 ~energy_pj:1.0;
  Obs.Profile.Stacks.record_leaf s ~frame:"leaf" ~cycles:3 ~energy_pj:1.5;
  (* Beyond max_depth the frame is dropped but the depth is still
     tracked, so matched pushes/pops rebalance exactly. *)
  Obs.Profile.Stacks.push s "deep";
  check Alcotest.int "overflow still counted" 2 (Obs.Profile.Stacks.depth s);
  Obs.Profile.Stacks.record s ~cycles:4 ~energy_pj:2.0;
  Obs.Profile.Stacks.pop s;
  check Alcotest.int "pop rebalances overflow" 1 (Obs.Profile.Stacks.depth s);
  Obs.Profile.Stacks.record s ~cycles:8 ~energy_pj:4.0;
  Obs.Profile.Stacks.pop s;
  Obs.Profile.Stacks.pop s;  (* popping at the root is a no-op *)
  check Alcotest.int "pop at root clamps" 0 (Obs.Profile.Stacks.depth s);
  Obs.Profile.Stacks.record s ~cycles:16 ~energy_pj:8.0;
  let folded = Obs.Profile.Stacks.folded s in
  let row path =
    match List.find_opt (fun (p, _, _) -> p = path) folded with
    | Some (_, cycles, pj) -> (cycles, pj)
    | None -> fail (Printf.sprintf "stack %S missing" path)
  in
  check Alcotest.int "rows for touched nodes only" 3 (List.length folded);
  check Alcotest.bool "root accumulates across visits" true
    (row "main" = (17, 8.5));
  (* The capped frame's cost lands on its deepest kept ancestor. *)
  check Alcotest.bool "frame f, overflow folded in" true
    (row "main;f" = (14, 7.0));
  check Alcotest.bool "leaf attribution" true (row "main;f;leaf" = (3, 1.5));
  check Alcotest.bool "folded rows sorted by stack" true
    (let paths = List.map (fun (p, _, _) -> p) folded in
     paths = List.sort String.compare paths)

(* Nesting is bounded: a frame of brackets far past the bound is a
   prompt parse error, not a stack overflow or a multi-second parse. *)
let test_json_depth_bound () =
  let depth = 100_000 in
  let doc = String.make depth '[' ^ String.make depth ']' in
  let t0 = Unix.gettimeofday () in
  (match Obs.Json.parse doc with
   | exception Obs.Json.Parse_error _ -> ()
   | _ -> fail "100 000-deep document accepted");
  check Alcotest.bool "rejected promptly" true (Unix.gettimeofday () -. t0 < 0.5);
  let at_bound n = String.make n '[' ^ String.make n ']' in
  (match Obs.Json.parse (at_bound Obs.Json.max_depth) with
   | _ -> ()
   | exception Obs.Json.Parse_error m -> fail ("bound itself rejected: " ^ m));
  match Obs.Json.parse (at_bound (Obs.Json.max_depth + 1)) with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> fail "one past the bound accepted"

(* A \u surrogate pair is one code point: four UTF-8 bytes, not two
   three-byte halves; an unpaired half is malformed. *)
let test_json_surrogates () =
  check Alcotest.string "pair decodes to one 4-byte sequence" "\xf0\x9f\x98\x80"
    (Obs.Json.to_str (Obs.Json.parse {|"\ud83d\ude00"|}));
  List.iter
    (fun doc ->
      match Obs.Json.parse doc with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> fail ("lone surrogate accepted: " ^ doc))
    [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|}; {|"\ude00"|} ]

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "edge cases" `Quick test_json_edge_cases;
          Alcotest.test_case "depth bound" `Quick test_json_depth_bound;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogates ] );
      ( "metrics",
        [ Alcotest.test_case "disabled no-op" `Quick
            test_metrics_disabled_is_noop;
          Alcotest.test_case "counters and labels" `Quick
            test_metrics_counter_and_labels;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "snapshot merge" `Quick
            test_metrics_snapshot_merge;
          Alcotest.test_case "snapshot diff" `Quick
            test_metrics_snapshot_diff;
          Alcotest.test_case "snapshot consistency under hammering" `Quick
            test_metrics_snapshot_consistency ] );
      ( "export",
        [ Alcotest.test_case "openmetrics" `Quick test_export_openmetrics;
          Alcotest.test_case "quantile" `Quick test_export_quantile;
          Alcotest.test_case "snapshot quantile" `Quick
            test_export_snapshot_quantile;
          Alcotest.test_case "snapshot delta" `Quick
            test_export_snapshot_delta ] );
      ( "log",
        [ Alcotest.test_case "records" `Quick test_log_records;
          Alcotest.test_case "level floor" `Quick test_log_level_floor;
          Alcotest.test_case "size-capped rotation" `Quick
            test_log_rotation ] );
      ( "trace",
        [ Alcotest.test_case "disabled no-op" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "spans + json" `Quick test_trace_spans_and_json;
          Alcotest.test_case "emit_all lanes" `Quick
            test_trace_emit_all_preserves_lanes;
          Alcotest.test_case "context ids" `Quick test_trace_context_ids;
          Alcotest.test_case "context spans" `Quick
            test_trace_context_spans;
          Alcotest.test_case "context scopes" `Quick
            test_trace_context_scopes ] );
      ( "waveform",
        [ Alcotest.test_case "buckets" `Quick test_waveform_buckets;
          Alcotest.test_case "bucket edges" `Quick
            test_waveform_bucket_edges;
          Alcotest.test_case "zero-cycle program" `Quick
            test_waveform_zero_cycles ] );
      ( "profile",
        [ Alcotest.test_case "per-slot accumulator" `Quick test_profile_slots;
          Alcotest.test_case "call stacks + folded" `Quick
            test_profile_stacks ] ) ]
