exception Frame_error of string

let max_frame_bytes = 16 * 1024 * 1024

(* --- Deadline-guarded exact reads ---------------------------------------- *)

let rec read_exact ~deadline fd buf off len =
  if len = 0 then `Ok
  else
    let timeout =
      match deadline with
      | None -> -1.0 (* block *)
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
    in
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> `Timeout
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      read_exact ~deadline fd buf off len
    | _ :: _, _, _ -> (
      match Unix.read fd buf off len with
      | 0 -> `Eof
      | n -> read_exact ~deadline fd buf (off + n) (len - n)
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        (* EAGAIN: a spurious readability wakeup on a non-blocking fd
           (the server drives connections non-blocking so its write
           deadlines are enforceable); go back to select. *)
        read_exact ~deadline fd buf off len
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof)

let read_frame ?deadline fd =
  let header = Bytes.create 4 in
  (* Distinguish a peer that closed cleanly between frames (None) from
     one that died mid-header (Frame_error): read the first byte
     separately. *)
  match read_exact ~deadline fd header 0 1 with
  | `Eof -> None
  | `Timeout -> raise (Frame_error "read timed out waiting for a frame")
  | `Ok -> (
    (match read_exact ~deadline fd header 1 3 with
     | `Ok -> ()
     | `Eof -> raise (Frame_error "truncated frame header")
     | `Timeout -> raise (Frame_error "read timed out inside a frame header"));
    let b i = Char.code (Bytes.get header i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > max_frame_bytes then
      raise
        (Frame_error
           (Printf.sprintf "frame length %d exceeds the %d-byte bound" len
              max_frame_bytes));
    let payload = Bytes.create len in
    match read_exact ~deadline fd payload 0 len with
    | `Ok -> Some (Bytes.unsafe_to_string payload)
    | `Eof -> raise (Frame_error "truncated frame payload")
    | `Timeout -> raise (Frame_error "read timed out inside a frame payload"))

(* Deadline-guarded writes, symmetric with [read_exact]: every chunk
   waits for writability with [select] against the same absolute
   deadline, so a peer that stops reading (a wedged or malicious
   client with a full socket buffer) can never hang the writer.  With
   no deadline the write simply blocks, as before. *)
let rec write_all ~deadline fd buf off len =
  if len > 0 then begin
    let timeout =
      match deadline with
      | None -> -1.0 (* block *)
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
    in
    match Unix.select [] [ fd ] [] timeout with
    | _, [], _ -> raise (Frame_error "write timed out inside a frame")
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_all ~deadline fd buf off len
    | _, _ :: _, _ -> (
      match Unix.write fd buf off len with
      | n -> write_all ~deadline fd buf (off + n) (len - n)
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        write_all ~deadline fd buf off len)
  end

let write_frame ?deadline fd payload =
  let n = String.length payload in
  if n > max_frame_bytes then
    raise
      (Frame_error
         (Printf.sprintf "frame length %d exceeds the %d-byte bound" n
            max_frame_bytes));
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  write_all ~deadline fd b 0 (4 + n)

(* The printer lives in [Obs.Json]; this alias keeps the name that
   external harnesses (the benchmark) link against. *)
let json_to_string = Obs.Json.to_string
