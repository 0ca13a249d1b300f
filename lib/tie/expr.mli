(** Combinational datapath expressions of custom instructions.

    A small hardware description language playing the role of the Verilog
    subset used by TIE: expressions over instruction operands, custom
    state and lookup tables, from which the TIE compiler infers bit
    widths, extracts hardware component instances and derives executable
    semantics for the instruction-set simulator. *)

type cmpop = Clt | Cltu | Ceq

type redop = Rand | Ror | Rxor

type t =
  | Arg of string                (** input operand, by name *)
  | State of string              (** custom-register state, by name *)
  | Const of int * int           (** value, width *)
  | Mul of t * t
  | Add of t * t
  | Sub of t * t
  | Cmp of cmpop * t * t         (** 1-bit result *)
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Not of t
  | Reduce of redop * t          (** 1-bit result *)
  | Mux of t * t * t             (** [Mux (sel, a, b)] = if sel<>0 then a else b *)
  | Shl of t * t
  | Shr of t * t                 (** logical *)
  | Sar of t * t                 (** arithmetic; sign from operand width *)
  | Table of string * t          (** table lookup by name *)
  | Concat of t * t              (** high, low *)
  | Extract of t * int * int     (** source, low bit, width *)
  | Tie_mult of t * t
  | Tie_mac of t * t * t         (** a*b + c *)
  | Tie_add of t * t * t
  | Tie_csa of t * t * t         (** carry-save stage, sum word *)

(** Static context for width inference: widths of operands, state and
    table shapes (entry count, element width). *)
type ctx = {
  arg_width : string -> int;
  state_width : string -> int;
  table_shape : string -> int * int;
}

exception Width_error of string

val width : ctx -> t -> int
(** Inferred result width (1..64).  @raise Width_error on unknown names
    or width overflow. *)

(** Dynamic environment for evaluation. *)
type env = {
  arg : string -> int;
  state : string -> int;
  table : string -> int -> int;  (** name, index *)
}

val eval : ctx -> env -> t -> int
(** Evaluate, masking every intermediate to its inferred width.
    Arithmetic is unsigned modulo 2^width except [Sar], which sign-extends
    from the operand's width. *)

type compiled_fn = int array -> int array -> int
(** A compiled expression: applied to a frame and the state-value array,
    returns the expression value.  The frame holds the positional
    operand values, and from the [scratch] index given to {!compile} on,
    the expression's {!scratch_slots} temporaries.  Behaves bit-for-bit
    like {!eval} over the same bindings.  The function keeps no mutable
    state of its own: callers that own distinct frames may run it
    concurrently. *)

val scratch_slots : t -> int
(** Number of frame slots {!compile} uses for temporaries: one per
    subexpression shared between several evaluation sites. *)

val compile :
  ctx ->
  arg:(string -> int) ->
  state:(string -> int) ->
  table:(string -> int array) ->
  scratch:int ->
  t ->
  compiled_fn
(** Compile the expression once into a closure tree with all
    value-independent work hoisted out of evaluation: widths and masks
    become captured constants, [arg]/[state] resolve names to indices
    into the two runtime arrays, and [table] resolves a table name to
    its data.  Temporaries live in frame slots [scratch] to
    [scratch + scratch_slots e - 1], which must not overlap the operand
    slots.  Name resolution and width inference run eagerly, so the
    errors {!eval} would raise per evaluation surface here instead.
    [Mux] stays lazy: only the selected branch is evaluated.
    @raise Width_error on width inference failures; the resolver
    callbacks may raise on unknown names. *)

val depth_delay : t -> float
(** Critical-path delay estimate in normalised gate-level units, used by
    the TIE compiler to derive instruction latency. *)

val subexprs : t -> t list
(** Direct children. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all nodes. *)
