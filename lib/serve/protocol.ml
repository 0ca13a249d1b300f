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

(* --- JSON printing -------------------------------------------------------- *)

(* Does [s] from [i] on need no escaping? *)
let rec plain s i =
  i >= String.length s
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && Char.code c >= 0x20 && plain s (i + 1)

let escape b s =
  (* Names, ids and keys almost never need escaping: copy them whole. *)
  if plain s 0 then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

let add_num b f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.bprintf b "%.0f" f
  else Printf.bprintf b "%.17g" f

let json_to_string j =
  let b = Buffer.create 256 in
  let rec go = function
    | Obs.Json.Null -> Buffer.add_string b "null"
    | Obs.Json.Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Obs.Json.Num f -> add_num b f
    | Obs.Json.Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
    | Obs.Json.Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then comma ();
          go v)
        l;
      Buffer.add_char b ']'
    | Obs.Json.Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then comma ();
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_char b '"';
          Buffer.add_char b ':';
          Buffer.add_char b ' ';
          go v)
        fields;
      Buffer.add_char b '}'
  (* Separators go in char by char: [Buffer.add_char] is inlined, while
     [Buffer.add_string] of a two-byte literal is a blit call. *)
  and comma () =
    Buffer.add_char b ',';
    Buffer.add_char b ' '
  in
  go j;
  Buffer.contents b
