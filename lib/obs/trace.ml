type arg =
  | S of string
  | I of int
  | F of float
  | B of bool

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;
  ev_ts : float;
  ev_dur : float;
  ev_tid : int;
  ev_args : (string * arg) list;
}

let on = ref false
let set_enabled b = on := b
let enabled () = !on

let cur_tid = ref 0
let set_tid t = cur_tid := t
let tid () = !cur_tid

let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

(* --- Request-scoped trace context ---------------------------------------- *)

type context = {
  trace_id : string;
  span_id : string;
  parent_id : string option;
}

(* Ids embed the pid so contexts minted after a fork (workers inherit the
   parent's generator state) cannot collide with the parent's.  The pid
   is cached and the generator seeded once per process: [reseed_ids] runs
   in every forked child ([after_fork]) and at daemon start, so minting an
   id costs no system call.  An id is minted as one integer — 16 bits of
   pid, 16 of a counter, 30 random from a splitmix-style generator — and
   formatted as 16 hex digits only when something reads it. *)
let id_pid = ref 0
let id_state = ref 0
let id_n = ref 0

let reseed_ids () =
  let pid = Unix.getpid () in
  id_pid := pid;
  id_n := 0;
  id_state :=
    Random.State.bits
      (Random.State.make [| pid; int_of_float (Unix.gettimeofday () *. 1e6) |])

let () = reseed_ids ()

let after_fork () = reseed_ids ()

let next_random () =
  let x = !id_state + 0x1e3779b97f4a7c15 in
  id_state := x;
  let z = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let mint () =
  incr id_n;
  ((!id_pid land 0xffff) lsl 46)
  lor ((!id_n land 0xffff) lsl 30)
  lor (next_random () land 0x3fffffff)

let hex_digits = "0123456789abcdef"

(* Write the low [n] hex digits of [v] into [b] at [off]. *)
let rec put_hex b off n v =
  if n > 0 then begin
    Bytes.unsafe_set b (off + n - 1)
      (String.unsafe_get hex_digits (v land 0xf));
    put_hex b off (n - 1) (v lsr 4)
  end

(* pid, counter and random part as 4 + 4 + 8 hex digits. *)
let format_id v =
  let b = Bytes.create 16 in
  put_hex b 0 4 (v lsr 46);
  put_hex b 4 4 (v lsr 30);
  put_hex b 8 8 (v land 0x3fffffff);
  Bytes.unsafe_to_string b

let new_id () = format_id (mint ())

(* Spans minted here are nodes: the id stays an integer until an exported
   event, a [context ()] call or a child's parent link asks for its text,
   and a child points at its parent's node.  A node made from a public
   [context] carries that context's strings as they are. *)
type node = {
  n_trace : string;
  n_id : int;              (* -1: made from a public context *)
  mutable n_hex : string;  (* "" until a minted id is formatted *)
  n_parent : parent;
}

and parent =
  | Given of string option  (* a public context's parent_id *)
  | Node of node

(* "No ambient context", compared physically: slots and events hold a
   node, never an option, so installing one allocates nothing. *)
let no_node = { n_trace = ""; n_id = -1; n_hex = ""; n_parent = Given None }

(* Formatting twice (two threads racing on one node) stores equal strings. *)
let node_span_id n =
  if n.n_id < 0 || String.length n.n_hex > 0 then n.n_hex
  else begin
    let h = format_id n.n_id in
    n.n_hex <- h;
    h
  end

let node_of_context c =
  { n_trace = c.trace_id;
    n_id = -1;
    n_hex = c.span_id;
    n_parent = Given c.parent_id }

let context_of_node n =
  { trace_id = n.n_trace;
    span_id = node_span_id n;
    parent_id =
      (match n.n_parent with Given p -> p | Node p -> Some (node_span_id p)) }

(* Thread-scoped context: one mutable slot per scope key (0 in
   single-threaded use; the server installs [Thread.id]), so entering and
   leaving a span writes a field instead of rebuilding a list.  Only the
   owning thread writes its slot; the slot list itself changes by
   compare-and-set, and a slot is dropped when its context is cleared so
   finished connection threads leave nothing behind. *)
let ctx_key : (unit -> int) ref = ref (fun () -> 0)
let set_context_key f = ctx_key := f

type slot = { s_key : int; mutable s_node : node }

let slots : slot list Atomic.t = Atomic.make []

let rec find_slot k = function
  | [] -> None
  | s :: rest -> if s.s_key = k then Some s else find_slot k rest

let rec update_slots f =
  let old = Atomic.get slots in
  if not (Atomic.compare_and_set slots old (f old)) then update_slots f

let node_at k =
  match find_slot k (Atomic.get slots) with Some s -> s.s_node | None -> no_node

let set_node_at k n =
  match find_slot k (Atomic.get slots) with
  | Some s when n != no_node -> s.s_node <- n
  | Some _ -> update_slots (List.filter (fun s -> s.s_key <> k))
  | None ->
    if n != no_node then update_slots (fun l -> { s_key = k; s_node = n } :: l)

let set_context c =
  set_node_at (!ctx_key ())
    (match c with Some c -> node_of_context c | None -> no_node)

let context () =
  let n = node_at (!ctx_key ()) in
  if n == no_node then None else Some (context_of_node n)

let with_node k n f =
  let saved = node_at k in
  set_node_at k n;
  match f () with
  | v -> set_node_at k saved; v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    set_node_at k saved;
    Printexc.raise_with_backtrace e bt

let with_context c f = with_node (!ctx_key ()) (node_of_context c) f

let ctx_args ctx args =
  ("trace_id", S ctx.trace_id)
  :: ("span_id", S ctx.span_id)
  :: ((match ctx.parent_id with
      | Some p -> [ ("parent_id", S p) ]
      | None -> [])
     @ args)

(* --- The event buffer ----------------------------------------------------- *)

(* A daemon records every span until it exits, so each buffered event is
   promoted to the major heap and marked by every major collection: its
   size is a per-request cost.  Events are therefore buffered compactly —
   integer nanosecond timestamps instead of boxed floats, and the context
   kept as its node instead of expanded into three args — and turned into
   {!event}s only when read. *)
type recorded = {
  r_name : string;
  r_cat : string;
  r_ph : char;
  r_ts_ns : int;
  r_dur_ns : int;
  r_tid : int;
  r_args : (string * arg) list;
  r_node : node;  (* stamped as args on read; [no_node] for none *)
}

let ns_of_us us = int_of_float (Float.round (us *. 1e3))
let now_ns () = ns_of_us (now_us ())

let to_event r =
  { ev_name = r.r_name;
    ev_cat = r.r_cat;
    ev_ph = r.r_ph;
    ev_ts = float_of_int r.r_ts_ns /. 1e3;
    ev_dur = float_of_int r.r_dur_ns /. 1e3;
    ev_tid = r.r_tid;
    ev_args =
      (if r.r_node == no_node then r.r_args
       else ctx_args (context_of_node r.r_node) r.r_args) }

(* Buffer in reverse order; [events] reverses once.  Server handler
   threads and the main thread record concurrently, so events are pushed
   with a compare-and-set rather than under a mutex: nothing can be left
   locked across a fork, and a push costs no system call. *)
let buf : recorded list Atomic.t = Atomic.make []

let rec record r =
  let old = Atomic.get buf in
  if not (Atomic.compare_and_set buf old (r :: old)) then record r

let record_span ~cat ~args ~tid ~node ~name ~ts_ns ~dur_ns =
  record
    { r_name = name;
      r_cat = cat;
      r_ph = 'X';
      r_ts_ns = ts_ns;
      r_dur_ns = dur_ns;
      r_tid = tid;
      r_args = args;
      r_node = node }

let complete ?(cat = "") ?(args = []) ?tid:tid_opt ?ctx ~name ~ts ~dur () =
  if !on then
    record_span ~cat ~args
      ~tid:(Option.value tid_opt ~default:!cur_tid)
      ~node:(match ctx with Some c -> node_of_context c | None -> no_node)
      ~name ~ts_ns:(ns_of_us ts) ~dur_ns:(ns_of_us dur)

(* Close a span opened by [run_span]: restore the parent context,
   record the event, return its duration.  A plain function rather than
   a closure, so a span allocates nothing beyond its event and node. *)
let end_span ~cat ~args ~name ~k ~parent ~node ~t0 =
  let dur = now_ns () - t0 in
  if node != no_node then set_node_at k parent;
  record_span ~cat ~args ~tid:!cur_tid ~node ~name ~ts_ns:t0 ~dur_ns:dur;
  dur

let seconds_of_ns ns = float_of_int ns *. 1e-9

(* Run [f] inside a recorded span and hand [on_done] its duration in
   seconds, also when [f] raises. *)
let run_span ~cat ~args name on_done f =
  let t0 = now_ns () in
  let k = !ctx_key () in
  let parent = node_at k in
  (* Under an ambient context, mint a child span so nested spans form a
     parent chain sharing one trace_id. *)
  let node =
    if parent == no_node then no_node
    else begin
      let child =
        { n_trace = parent.n_trace;
          n_id = mint ();
          n_hex = "";
          n_parent = Node parent }
      in
      set_node_at k child;
      child
    end
  in
  match f () with
  | v ->
    on_done (seconds_of_ns (end_span ~cat ~args ~name ~k ~parent ~node ~t0));
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    on_done (seconds_of_ns (end_span ~cat ~args ~name ~k ~parent ~node ~t0));
    Printexc.raise_with_backtrace e bt

let with_span ?(cat = "") ?(args = []) name f =
  if not !on then f () else run_span ~cat ~args name ignore f

let timed_span ?(cat = "") ?(args = []) name on_done f =
  if !on then run_span ~cat ~args name on_done f
  else begin
    let t0 = now_ns () in
    match f () with
    | v -> on_done (seconds_of_ns (now_ns () - t0)); v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      on_done (seconds_of_ns (now_ns () - t0));
      Printexc.raise_with_backtrace e bt
  end

let instant ?(cat = "") ?(args = []) name =
  if !on then
    record
      { r_name = name;
        r_cat = cat;
        r_ph = 'i';
        r_ts_ns = now_ns ();
        r_dur_ns = 0;
        r_tid = !cur_tid;
        r_args = args;
        r_node = node_at (!ctx_key ()) }

let thread_name ~tid:t name =
  if !on then
    record
      { r_name = "thread_name";
        r_cat = "__metadata";
        r_ph = 'M';
        r_ts_ns = 0;
        r_dur_ns = 0;
        r_tid = t;
        r_args = [ ("name", S name) ];
        r_node = no_node }

let emit_all es =
  if !on then
    List.iter
      (fun e ->
        record
          { r_name = e.ev_name;
            r_cat = e.ev_cat;
            r_ph = e.ev_ph;
            r_ts_ns = ns_of_us e.ev_ts;
            r_dur_ns = ns_of_us e.ev_dur;
            r_tid = e.ev_tid;
            r_args = e.ev_args;
            r_node = no_node })
      es

let events () = List.rev_map to_event (Atomic.get buf)
let clear () = Atomic.set buf []
let drain () = List.rev_map to_event (Atomic.exchange buf [])

(* --- Chrome trace-event JSON --------------------------------------------- *)

let json_of_arg = function
  | S s -> Json.Str s
  | I i -> Json.int i
  | F f -> Json.Num f
  | B b -> Json.Bool b

let event_json e =
  let opt cond field = if cond then [ field ] else [] in
  Json.Obj
    ([ ("name", Json.Str e.ev_name);
       ("cat", Json.Str (if e.ev_cat = "" then "xenergy" else e.ev_cat));
       ("ph", Json.Str (String.make 1 e.ev_ph));
       ("ts", Json.Num e.ev_ts) ]
    @ opt (e.ev_ph = 'X') ("dur", Json.Num e.ev_dur)
    @ [ ("pid", Json.int 1); ("tid", Json.int e.ev_tid) ]
    (* Instant events need a scope; thread scope matches the lane model. *)
    @ opt (e.ev_ph = 'i') ("s", Json.Str "t")
    @ opt (e.ev_args <> [])
        ("args",
         Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) e.ev_args)))

let to_json es =
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.Arr (List.map event_json es));
         ("displayTimeUnit", Json.Str "ms") ])

let save path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json (events ()));
      Out_channel.output_char oc '\n')
