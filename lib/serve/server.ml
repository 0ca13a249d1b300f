module M = struct
  let accept_errors reason =
    Obs.Metrics.counter
      ~labels:[ ("reason", reason) ]
      ~help:"accept() failures retried by the serve loop"
      "serve_accept_errors_total"

  let connections =
    lazy
      (Obs.Metrics.counter ~help:"connections accepted by the serve loop"
         "serve_connections_total")

  let active =
    lazy
      (Obs.Metrics.gauge ~help:"connections currently being served"
         "serve_active_connections")
end

(* Is a daemon alive behind this socket path?  [connect] succeeding
   means a listener accepted us — refuse to start.  [ECONNREFUSED]
   means the file is a corpse left by a daemon that died without
   cleanup, [ENOENT] that it vanished meanwhile: both safe to replace.
   Unconditionally unlinking (as this server once did) would defeat
   bind's EADDRINUSE protection and silently steal a live daemon's
   socket out from under it. *)
let probe_live socket =
  Sys.file_exists socket
  && begin
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () ->
           try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           match Unix.connect fd (Unix.ADDR_UNIX socket) with
           | () -> true
           | exception
               Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
             false)
     end

let handle_conn router ~io_timeout_s conn =
  (* Non-blocking, so the protocol's select-guarded deadlines bound
     every read *and* write chunk — a client that stops reading its
     response cannot wedge this handler past [io_timeout_s]. *)
  (try Unix.set_nonblock conn with Unix.Unix_error _ -> ());
  let rec loop () =
    let deadline = Unix.gettimeofday () +. io_timeout_s in
    match Protocol.read_frame ~deadline conn with
    | None -> ()
    | Some payload ->
      let received = Unix.gettimeofday () in
      let resp = Router.handle_text ~received router payload in
      let deadline = Unix.gettimeofday () +. io_timeout_s in
      Protocol.write_frame ~deadline conn resp;
      if not (Router.stopped router) then loop ()
  in
  try loop () with
  | Protocol.Frame_error msg ->
    Obs.Log.event ~level:Obs.Log.Warn "serve:frame-error"
      [ ("error", Obs.Trace.S msg) ]
  | Unix.Unix_error (e, _, _) ->
    (* EPIPE/ECONNRESET: the client hung up mid-response.  With SIGPIPE
       ignored this is a per-connection warning, never daemon death. *)
    Obs.Log.event ~level:Obs.Log.Warn "serve:io-error"
      [ ("error", Obs.Trace.S (Unix.error_message e)) ]

let run ?(io_timeout_s = 10.0) ?(backlog = 16) ?(max_conns = 8) ~socket router
    =
  if max_conns < 1 then invalid_arg "Server.run: max_conns must be >= 1";
  Obs.Metrics.set_enabled true;
  (* A client can disappear between our read and our write; without
     this, the resulting SIGPIPE kills the whole daemon instead of
     surfacing as a per-connection EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Register every serve-loop metric family before threads exist (the
     registry's table is then never resized concurrently) — and so a
     scrape shows the error counters at 0 rather than absent. *)
  List.iter
    (fun reason -> ignore (M.accept_errors reason))
    [ "aborted"; "fd-exhausted" ];
  ignore (Lazy.force M.connections);
  ignore (Lazy.force M.active);
  if probe_live socket then
    raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", socket));
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listener (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listener backlog;
  (* Per-thread scopes: each connection thread labels its own log
     records, carries its own per-request backend override, and keeps
     its own trace context. *)
  Obs.Log.set_correlation_key (fun () -> Thread.id (Thread.self ()));
  Sim.Backend.set_scope_key (fun () -> Thread.id (Thread.self ()));
  Obs.Trace.set_context_key (fun () -> Thread.id (Thread.self ()));
  (* The daemon may be a fork of a process that already minted trace
     ids; its own must not repeat them. *)
  Obs.Trace.reseed_ids ();
  Obs.Log.event "serve:start"
    [ ("socket", Obs.Trace.S socket);
      ("io_timeout_s", Obs.Trace.F io_timeout_s);
      ("max_conns", Obs.Trace.I max_conns) ];
  let lock = Mutex.create () in
  let active = ref 0 in
  let accepted = ref 0 in
  let current_active () =
    Mutex.lock lock;
    let n = !active in
    Mutex.unlock lock;
    n
  in
  let adjust_active d =
    Mutex.lock lock;
    active := !active + d;
    let n = !active in
    Mutex.unlock lock;
    Obs.Metrics.set (Lazy.force M.active) (float_of_int n)
  in
  let spawn conn =
    incr accepted;
    Obs.Metrics.inc (Lazy.force M.connections);
    let corr = Printf.sprintf "req-%d-%d" (Unix.getpid ()) !accepted in
    adjust_active 1;
    let serve () =
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close conn with Unix.Unix_error _ -> ());
          adjust_active (-1))
        (fun () ->
          Obs.Log.with_correlation corr (fun () ->
              handle_conn router ~io_timeout_s conn))
    in
    match Thread.create serve () with
    | (_ : Thread.t) -> ()
    | exception e ->
      (* Thread exhaustion: shed this connection, keep the daemon. *)
      (try Unix.close conn with Unix.Unix_error _ -> ());
      adjust_active (-1);
      Obs.Log.event ~level:Obs.Log.Warn "serve:spawn-error"
        [ ("error", Obs.Trace.S (Printexc.to_string e)) ]
  in
  let rec accept_loop () =
    if not (Router.stopped router) then
      if current_active () >= max_conns then begin
        (* At the bound: pending clients queue in the listen backlog
           until a handler finishes. *)
        Unix.sleepf 0.01;
        accept_loop ()
      end
      else
        (* Wake at least every 250 ms: a shutdown request is handled on
           a connection thread, and this loop must notice it without
           another client connecting. *)
        match Unix.select [ listener ] [] [] 0.25 with
        | [], _, _ -> accept_loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | _ :: _, _, _ -> (
          match Unix.accept listener with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
            (* The client gave up between connect and accept; nothing
               to serve, nothing to crash over. *)
            Obs.Metrics.inc (M.accept_errors "aborted");
            accept_loop ()
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _)
            ->
            (* Out of descriptors: back off briefly so in-flight
               handlers can close theirs, then try again — crashing
               the accept loop would turn transient fd pressure into
               an outage. *)
            Obs.Metrics.inc (M.accept_errors "fd-exhausted");
            Obs.Log.event ~level:Obs.Log.Warn "serve:accept-error"
              [ ("error", Obs.Trace.S (Unix.error_message e)) ];
            Unix.sleepf 0.05;
            accept_loop ()
          | conn, _ ->
            spawn conn;
            accept_loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      (* Give in-flight connection threads a bounded grace to finish
         answering before the router (pool, cache index) is torn down
         under them; a thread still wedged on a dead client past this
         hits its own I/O deadline and exits harmlessly. *)
      let give_up = Unix.gettimeofday () +. 2.0 in
      while current_active () > 0 && Unix.gettimeofday () < give_up do
        Unix.sleepf 0.01
      done;
      Router.shutdown router;
      Obs.Log.event "serve:stop"
        [ ("connections", Obs.Trace.I !accepted) ])
    accept_loop
