type session = { s_fd : Unix.file_descr; mutable s_closed : bool }

let connect ~socket =
  (* A daemon dying under us must surface as EPIPE on the next call,
     not kill the client process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { s_fd = fd; s_closed = false }

let close s =
  if not s.s_closed then begin
    s.s_closed <- true;
    try Unix.close s.s_fd with Unix.Unix_error _ -> ()
  end

let raw_call_text ?timeout_s s text =
  Protocol.write_frame s.s_fd text;
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout_s in
  match Protocol.read_frame ?deadline s.s_fd with
  | Some payload -> Obs.Json.parse payload
  | None ->
    raise
      (Protocol.Frame_error "server closed the connection without a response")

let raw_call ?timeout_s s req =
  raw_call_text ?timeout_s s (Obs.Json.to_string req)

let session_call ?timeout_s ?trace s req =
  if s.s_closed then invalid_arg "Client.session_call: session is closed";
  let trace = Option.value trace ~default:(Obs.Trace.enabled ()) in
  if not trace then raw_call ?timeout_s s req
  else begin
    (* Run the round trip as a client:call span and hand its ids to the
       daemon in the request, so the server's spans (and the pool
       workers') chain under this one in the exported trace. *)
    let ctx =
      match Obs.Trace.context () with
      | Some p ->
        { Obs.Trace.trace_id = p.Obs.Trace.trace_id;
          span_id = Obs.Trace.new_id ();
          parent_id = Some p.Obs.Trace.span_id }
      | None ->
        { Obs.Trace.trace_id = Obs.Trace.new_id ();
          span_id = Obs.Trace.new_id ();
          parent_id = None }
    in
    (* The ids travel as two more request fields.  When both were
       minted here (no parent), they are hex and are spliced in front of
       the printed request's closing brace: on a warm round trip of tens
       of microseconds, printing them generically is a measurable share
       of the tracing budget.  A trace id inherited from a caller's
       context may need escaping, so it goes through the printer. *)
    let text =
      match req with
      | Obs.Json.Obj fields when List.mem_assoc "trace_id" fields ->
        Obs.Json.to_string req
      | Obs.Json.Obj (_ :: _) when ctx.Obs.Trace.parent_id = None ->
        let body = Obs.Json.to_string req in
        String.concat ""
          [ String.sub body 0 (String.length body - 1);
            ", \"trace_id\": \"";
            ctx.Obs.Trace.trace_id;
            "\", \"parent_span_id\": \"";
            ctx.Obs.Trace.span_id;
            "\"}" ]
      | Obs.Json.Obj fields ->
        Obs.Json.to_string
          (Obs.Json.Obj
             (fields
             @ [ ("trace_id", Obs.Json.Str ctx.Obs.Trace.trace_id);
                 ("parent_span_id", Obs.Json.Str ctx.Obs.Trace.span_id) ]))
      | req -> Obs.Json.to_string req
    in
    let t0 = Obs.Trace.now_us () in
    let finish () =
      Obs.Trace.complete ~cat:"serve" ~ctx ~name:"client:call" ~ts:t0
        ~dur:(Obs.Trace.now_us () -. t0) ()
    in
    match
      Obs.Trace.with_context ctx (fun () -> raw_call_text ?timeout_s s text)
    with
    | v -> finish (); v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let with_session ~socket f =
  let s = connect ~socket in
  Fun.protect ~finally:(fun () -> close s) (fun () -> f s)

let call ?timeout_s ~socket req =
  with_session ~socket (fun s -> session_call ?timeout_s s req)

let wait_ready ?(timeout_s = 10.0) ~socket () =
  let give_up = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let ok =
      match call ~timeout_s:1.0 ~socket (Obs.Json.Obj [ ("op", Obs.Json.Str "ping") ]) with
      | Obs.Json.Obj fields -> List.assoc_opt "ok" fields = Some (Obs.Json.Bool true)
      | _ -> false
      | exception Unix.Unix_error _ -> false
      | exception Protocol.Frame_error _ -> false
      | exception Obs.Json.Parse_error _ -> false
    in
    ok
    || (Unix.gettimeofday () < give_up
        && (Unix.sleepf 0.05;
            go ()))
  in
  go ()
