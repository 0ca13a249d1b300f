(** Imperative assembly builder.

    A thin DSL over [Program.t] used to author the workload suite: emit
    instructions one by one, define labels (with a fresh-name generator so
    helper routines compose), attach literals and data blocks, then [seal]
    into a program.  The module is designed to be [open]ed inside workload
    definitions; it exposes [a0]..[a15] register shorthands. *)

type t

val create : string -> t
(** [create name] starts an empty program called [name]. *)

val insn : t -> Instr.t -> unit

val repeat : t -> int -> Instr.t array -> unit
(** [repeat b n body] emits [n] instructions cycling through [body]
    (the [k]th is [body.(k mod Array.length body)]).  Each distinct
    instruction is stored once and shared by its repetitions, so a long
    straight-line body costs a slot per instruction, not a value. *)

val label : t -> string -> unit
(** Define a label at the current code position. *)

val fresh : t -> string -> string
(** [fresh b stem] returns a new unique label name ["stem$n"] (not yet
    placed; place it with [label]). *)

val lit : t -> string -> int -> unit
(** Define a named 32-bit literal (for [l32r]). *)

val lit_addr : t -> string -> string -> unit
(** [lit_addr b name label] defines a literal holding the resolved
    address of [label] (for indirect jumps/calls via [l32r] + [jx]). *)

val words : t -> string -> int array -> unit
(** Define a data block of little-endian 32-bit words. *)

val bytes : t -> string -> int array -> unit

val bytes_at : t -> string -> addr:int -> int array -> unit
(** Data block at a fixed address (e.g. inside the uncached region). *)

val seal : t -> Program.t

(** {1 Register shorthands} *)

val a0 : Reg.t
val a1 : Reg.t
val a2 : Reg.t
val a3 : Reg.t
val a4 : Reg.t
val a5 : Reg.t
val a6 : Reg.t
val a7 : Reg.t
val a8 : Reg.t
val a9 : Reg.t
val a10 : Reg.t
val a11 : Reg.t
val a12 : Reg.t
val a13 : Reg.t
val a14 : Reg.t
val a15 : Reg.t

(** {1 Instruction emitters} *)

val add : t -> Reg.t -> Reg.t -> Reg.t -> unit
val addx2 : t -> Reg.t -> Reg.t -> Reg.t -> unit
val addx4 : t -> Reg.t -> Reg.t -> Reg.t -> unit
val addx8 : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sub : t -> Reg.t -> Reg.t -> Reg.t -> unit
val subx2 : t -> Reg.t -> Reg.t -> Reg.t -> unit
val subx4 : t -> Reg.t -> Reg.t -> Reg.t -> unit
val subx8 : t -> Reg.t -> Reg.t -> Reg.t -> unit
val and_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val or_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val xor : t -> Reg.t -> Reg.t -> Reg.t -> unit
val min_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val max_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val minu : t -> Reg.t -> Reg.t -> Reg.t -> unit
val maxu : t -> Reg.t -> Reg.t -> Reg.t -> unit
val mul16s : t -> Reg.t -> Reg.t -> Reg.t -> unit
val mul16u : t -> Reg.t -> Reg.t -> Reg.t -> unit
val mull : t -> Reg.t -> Reg.t -> Reg.t -> unit
val abs_ : t -> Reg.t -> Reg.t -> unit
val neg : t -> Reg.t -> Reg.t -> unit
val nsa : t -> Reg.t -> Reg.t -> unit
val nsau : t -> Reg.t -> Reg.t -> unit
val sext : t -> Reg.t -> Reg.t -> int -> unit
val moveqz : t -> Reg.t -> Reg.t -> Reg.t -> unit
val movnez : t -> Reg.t -> Reg.t -> Reg.t -> unit
val movltz : t -> Reg.t -> Reg.t -> Reg.t -> unit
val movgez : t -> Reg.t -> Reg.t -> Reg.t -> unit
val addi : t -> Reg.t -> Reg.t -> int -> unit
val addmi : t -> Reg.t -> Reg.t -> int -> unit
val movi : t -> Reg.t -> int -> unit
val mov : t -> Reg.t -> Reg.t -> unit
val extui : t -> Reg.t -> Reg.t -> int -> int -> unit
val slli : t -> Reg.t -> Reg.t -> int -> unit
val srli : t -> Reg.t -> Reg.t -> int -> unit
val srai : t -> Reg.t -> Reg.t -> int -> unit
val sll : t -> Reg.t -> Reg.t -> unit
val srl : t -> Reg.t -> Reg.t -> unit
val sra : t -> Reg.t -> Reg.t -> unit
val src : t -> Reg.t -> Reg.t -> Reg.t -> unit
val ssai : t -> int -> unit
val ssl : t -> Reg.t -> unit
val ssr : t -> Reg.t -> unit
val l8ui : t -> Reg.t -> Reg.t -> int -> unit
val l16si : t -> Reg.t -> Reg.t -> int -> unit
val l16ui : t -> Reg.t -> Reg.t -> int -> unit
val l32i : t -> Reg.t -> Reg.t -> int -> unit
val l32r : t -> Reg.t -> string -> unit
val s8i : t -> Reg.t -> Reg.t -> int -> unit
val s16i : t -> Reg.t -> Reg.t -> int -> unit
val s32i : t -> Reg.t -> Reg.t -> int -> unit
val beq : t -> Reg.t -> Reg.t -> string -> unit
val bne : t -> Reg.t -> Reg.t -> string -> unit
val blt : t -> Reg.t -> Reg.t -> string -> unit
val bge : t -> Reg.t -> Reg.t -> string -> unit
val bltu : t -> Reg.t -> Reg.t -> string -> unit
val bgeu : t -> Reg.t -> Reg.t -> string -> unit
val bany : t -> Reg.t -> Reg.t -> string -> unit
val bnone : t -> Reg.t -> Reg.t -> string -> unit
val ball : t -> Reg.t -> Reg.t -> string -> unit
val bnall : t -> Reg.t -> Reg.t -> string -> unit
val beqi : t -> Reg.t -> int -> string -> unit
val bnei : t -> Reg.t -> int -> string -> unit
val blti : t -> Reg.t -> int -> string -> unit
val bgei : t -> Reg.t -> int -> string -> unit
val bltui : t -> Reg.t -> int -> string -> unit
val bgeui : t -> Reg.t -> int -> string -> unit
val beqz : t -> Reg.t -> string -> unit
val bnez : t -> Reg.t -> string -> unit
val bltz : t -> Reg.t -> string -> unit
val bgez : t -> Reg.t -> string -> unit
val bbc : t -> Reg.t -> Reg.t -> string -> unit
val bbs : t -> Reg.t -> Reg.t -> string -> unit
val bbci : t -> Reg.t -> int -> string -> unit
val bbsi : t -> Reg.t -> int -> string -> unit
val j : t -> string -> unit
val jx : t -> Reg.t -> unit
val call0 : t -> string -> unit
val callx0 : t -> Reg.t -> unit
val call8 : t -> string -> unit
val callx8 : t -> Reg.t -> unit
val ret : t -> unit
val retw : t -> unit
val entry : t -> Reg.t -> int -> unit
val nop : t -> unit
val memw : t -> unit
val extw : t -> unit
val isync : t -> unit
val break : t -> unit

val custom : t -> string -> ?dst:Reg.t -> ?imm:int -> Reg.t list -> unit
(** [custom b name ~dst srcs] emits a custom-instruction call. *)

(** {1 Structured helpers} *)

val loop_n : t -> cnt:Reg.t -> int -> (unit -> unit) -> unit
(** [loop_n b ~cnt n body] emits a counted loop running [body] [n] times;
    [cnt] is clobbered (counts down to zero). *)

val halt : t -> unit
(** Emit the conventional program terminator ([break]). *)
