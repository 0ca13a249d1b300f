(** JSON values: the parser and the repository's one printer.

    Every document the program writes (run reports, accuracy reports,
    attributions, profiles, sweeps, eval-cache entries, traces, metrics,
    log lines, daemon frames, bench records) is built as a {!t} and
    rendered by {!to_string}, so the text format is decided once:

    - compact: the whole document on one line, [", "] and [": "]
      separators, object keys in construction order;
    - integral floats below 1e15 print without a fractional part, all
      others with [%.17g], so every finite float round-trips through
      {!parse} bit-exactly;
    - non-finite floats (NaN, ±infinity) have no JSON encoding and
      print as [null].

    Parsing is strict RFC-8259 apart from accepting any IEEE float
    syntax OCaml's [float_of_string] does, and ignores whitespace, so
    documents written in older multi-line layouts still load.  [\u]
    surrogate pairs decode to one 4-byte UTF-8 sequence; a lone
    surrogate is an error.  Nesting is bounded at {!max_depth} levels,
    so a hostile input of brackets cannot exhaust the stack. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val int : int -> t
(** [Num] of an integer (exact up to 2{^53}). *)

val max_depth : int
(** Deepest nesting of arrays and objects {!parse} accepts (512). *)

val parse : string -> t
(** @raise Parse_error on malformed input, trailing garbage, or
    nesting deeper than {!max_depth}. *)

val to_string : t -> string
(** Render a value in the compact layout described above. *)

val member : string -> t -> t
(** Object field access.  @raise Parse_error if absent or not an object. *)

val to_float : t -> float
(** Numeric value.  @raise Parse_error on a non-number. *)

val to_int : t -> int
(** Numeric value truncated to int.  @raise Parse_error on a
    non-number. *)

val to_str : t -> string
(** String value.  @raise Parse_error on a non-string. *)

val to_list : t -> t list
(** Array elements.  @raise Parse_error on a non-array. *)
