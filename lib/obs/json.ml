type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { s : string; mutable pos : int }

(* The parser runs on every daemon request and response, so the
   per-character helpers do not allocate: [peek] answers ['\000'] at the
   end of input (a NUL byte is never valid JSON outside a string, so
   every caller treats both alike), and plain strings are cut out whole
   instead of copied byte by byte. *)
let peek_char st =
  if st.pos < String.length st.s then String.unsafe_get st.s st.pos else '\000'

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek_char st with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    advance st
  done

let expect st c =
  if st.pos < String.length st.s && String.unsafe_get st.s st.pos = c then
    advance st
  else
    match peek st with
    | Some x -> fail "expected %c at offset %d, found %c" c st.pos x
    | None -> fail "expected %c at offset %d, found end of input" c st.pos

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail "bad literal at offset %d" st.pos

(* The four hex digits of a [\u] escape. *)
let hex4 st =
  if st.pos + 4 > String.length st.s then fail "bad \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> fail "bad \\u escape %S" (String.sub st.s st.pos 4)
  in
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 4) lor digit st.s.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !v

let add_utf8 b code =
  let cont shift = Char.chr (0x80 lor ((code lsr shift) land 0x3F)) in
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (cont 0)
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (cont 6);
    Buffer.add_char b (cont 0)
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (cont 12);
    Buffer.add_char b (cont 6);
    Buffer.add_char b (cont 0)
  end

(* The general case: a string with escapes, decoded byte by byte. *)
let parse_escaped_string st =
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' -> advance st; Buffer.contents b
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail "unterminated escape"
      | Some c ->
        advance st;
        (match c with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           let code = hex4 st in
           let low c = c land 0xFC00 = 0xDC00 in
           if low code then fail "lone low surrogate \\u%04x" code;
           if code land 0xFC00 <> 0xD800 then add_utf8 b code
           else begin
             (* A high surrogate must be followed by an escaped low one;
                the pair is one code point above the BMP. *)
             if
               not
                 (st.pos + 2 <= String.length st.s
                 && st.s.[st.pos] = '\\' && st.s.[st.pos + 1] = 'u')
             then fail "high surrogate \\u%04x without a low one" code;
             st.pos <- st.pos + 2;
             let next = hex4 st in
             if not (low next) then
               fail "high surrogate \\u%04x without a low one" code;
             add_utf8 b (0x10000 + ((code - 0xD800) lsl 10) + (next - 0xDC00))
           end
         | c -> fail "bad escape \\%c" c);
        go ())
    | Some c -> advance st; Buffer.add_char b c; go ()
  in
  go ()

let parse_string_body st =
  expect st '"';
  let s = st.s and start = st.pos in
  let stop = ref start in
  while
    !stop < String.length s
    &&
    let c = String.unsafe_get s !stop in
    c <> '"' && c <> '\\'
  do
    incr stop
  done;
  if !stop < String.length s && String.unsafe_get s !stop = '"' then begin
    st.pos <- !stop + 1;
    String.sub s start (!stop - start)
  end
  else parse_escaped_string st

let parse_number st =
  let start = st.pos in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while num_char (peek_char st) do
    advance st
  done;
  let s = String.sub st.s start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail "bad number %S at offset %d" s start

(* The deepest document the repository writes nests about five levels;
   the bound keeps a hostile frame of brackets from recursing the
   parser's stack away. *)
let max_depth = 512

let rec parse_value st depth =
  skip_ws st;
  if st.pos >= String.length st.s then fail "unexpected end of input";
  match peek_char st with
  | '"' -> Str (parse_string_body st)
  | ('{' | '[') when depth >= max_depth ->
    fail "nesting deeper than %d at offset %d" max_depth st.pos
  | '{' ->
    advance st;
    skip_ws st;
    if peek_char st = '}' then (advance st; Obj [])
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek_char st with
        | ',' -> advance st; members ((k, v) :: acc)
        | '}' -> advance st; Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected , or } at offset %d" st.pos
      in
      members []
    end
  | '[' ->
    advance st;
    skip_ws st;
    if peek_char st = ']' then (advance st; Arr [])
    else begin
      let rec elements acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek_char st with
        | ',' -> advance st; elements (v :: acc)
        | ']' -> advance st; Arr (List.rev (v :: acc))
        | _ -> fail "expected , or ] at offset %d" st.pos
      in
      elements []
    end
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail "unexpected %c at offset %d" c st.pos

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at offset %d" st.pos;
  v

let int n = Num (float_of_int n)

(* --- Printing ------------------------------------------------------------- *)

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

let to_string j =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num f -> add_num b f
    | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
    | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then comma ();
          go v)
        l;
      Buffer.add_char b ']'
    | Obj fields ->
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

(* --- Access --------------------------------------------------------------- *)

let member k = function
  | Obj fields -> (
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> fail "no member %S" k)
  | _ -> fail "member %S of a non-object" k

let to_float = function Num f -> f | _ -> fail "expected number"

let to_int = function
  | Num f when Float.is_integer f -> int_of_float f
  | _ -> fail "expected integer"

let to_str = function Str s -> s | _ -> fail "expected string"
let to_list = function Arr l -> l | _ -> fail "expected array"
