(* Child processes of the benchmark.

   Every daemon and CLI run starts in a session of its own, so its
   process-group id is its pid and killing the group takes its forked
   pool lanes with it.  Every start is registered until it is reaped, so
   any exit path (normal end, failed check, exception, SIGINT/SIGTERM)
   can stop and reap whatever is still running: see [cleanup]. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let live_lock = Mutex.create ()

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) f

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
    0o644

(* [argv.(0)] is the program.  [stdout]/[stderr] are file paths. *)
let spawn ~stdout ~stderr argv =
  let out = open_out_fd stdout in
  let err = if stderr = stdout then out else open_out_fd stderr in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Stdlib.flush_all ();
  let pid =
    with_live @@ fun () ->
    match Unix.fork () with
    | 0 -> (
      try
        ignore (Unix.setsid ());
        Unix.dup2 ~cloexec:false null Unix.stdin;
        Unix.dup2 ~cloexec:false out Unix.stdout;
        Unix.dup2 ~cloexec:false err Unix.stderr;
        Unix.execv argv.(0) argv
      with _ -> Unix._exit 127)
    | pid ->
      Hashtbl.replace live pid ();
      pid
  in
  List.iter Unix.close (if err == out then [ out; null ] else [ out; err; null ]);
  pid

let kill_group pid =
  try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ()

let forget pid = with_live (fun () -> Hashtbl.remove live pid)

(* Block until [pid] exits; its status. *)
let wait pid =
  let _, status = restart_on_eintr (fun () -> Unix.waitpid [] pid) in
  forget pid;
  status

(* [Some status] once [pid] has exited, [None] if it is still running
   at [deadline] ([Unix.gettimeofday] clock). *)
let wait_until ~deadline pid =
  let rec go () =
    match restart_on_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
    | 0, _ ->
      if Unix.gettimeofday () >= deadline then None
      else begin
        Unix.sleepf 0.002;
        go ()
      end
    | _, status ->
      forget pid;
      Some status
  in
  go ()

let alive pid =
  match restart_on_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
  | 0, _ -> true
  | _ ->
    forget pid;
    false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* SIGKILL the group, then reap the leader.  The leader's own children
   (pool lanes) die with the group. *)
let kill_and_reap pid =
  kill_group pid;
  (try ignore (wait pid) with Unix.Unix_error _ -> forget pid);
  kill_group pid

let cleanup () =
  let pids = with_live (fun () -> Hashtbl.fold (fun p () acc -> p :: acc) live []) in
  List.iter kill_and_reap pids

(* --- /proc -------------------------------------------------------------- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Peak resident set ([VmHWM]) of one process, in kB; 0 when gone. *)
let vmhwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (try int_of_string kb with Failure _ -> acc)
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' text)

(* Parent pid from /proc/<pid>/stat; the command name may hold spaces
   and parentheses, so parse after the last ')'. *)
let ppid_of pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i -> (
      match
        String.split_on_char ' '
          (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
      with
      | _state :: ppid :: _ -> int_of_string_opt ppid
      | _ -> None))

let children pid =
  Array.fold_left
    (fun acc entry ->
      match int_of_string_opt entry with
      | Some p when ppid_of p = Some pid -> p :: acc
      | _ -> acc)
    [] (Sys.readdir "/proc")

(* Peak RSS of a process and its direct children (a daemon and its pool
   lanes), in MB. *)
let tree_hwm_mb pid =
  let kb = List.fold_left (fun a p -> a + vmhwm_kb p) (vmhwm_kb pid) (children pid) in
  float_of_int kb /. 1024.0
