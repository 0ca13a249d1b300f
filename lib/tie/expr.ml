type cmpop = Clt | Cltu | Ceq

type redop = Rand | Ror | Rxor

type t =
  | Arg of string
  | State of string
  | Const of int * int
  | Mul of t * t
  | Add of t * t
  | Sub of t * t
  | Cmp of cmpop * t * t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Not of t
  | Reduce of redop * t
  | Mux of t * t * t
  | Shl of t * t
  | Shr of t * t
  | Sar of t * t
  | Table of string * t
  | Concat of t * t
  | Extract of t * int * int
  | Tie_mult of t * t
  | Tie_mac of t * t * t
  | Tie_add of t * t * t
  | Tie_csa of t * t * t

type ctx = {
  arg_width : string -> int;
  state_width : string -> int;
  table_shape : string -> int * int;
}

exception Width_error of string

let werr fmt = Format.kasprintf (fun s -> raise (Width_error s)) fmt

let clamp_width w = if w > 64 then werr "width %d exceeds 64 bits" w else w

let rec width ctx e =
  match e with
  | Arg name -> ctx.arg_width name
  | State name -> ctx.state_width name
  | Const (_, w) ->
    if w <= 0 || w > 64 then werr "constant width %d out of range" w else w
  | Mul (a, b) | Tie_mult (a, b) ->
    clamp_width (width ctx a + width ctx b)
  | Add (a, b) | Sub (a, b) -> clamp_width (max (width ctx a) (width ctx b))
  | Cmp (_, a, b) ->
    ignore (width ctx a); ignore (width ctx b); 1
  | And (a, b) | Or (a, b) | Xor (a, b) ->
    max (width ctx a) (width ctx b)
  | Not a -> width ctx a
  | Reduce (_, a) -> ignore (width ctx a); 1
  | Mux (sel, a, b) ->
    ignore (width ctx sel);
    max (width ctx a) (width ctx b)
  | Shl (a, b) | Shr (a, b) | Sar (a, b) ->
    ignore (width ctx b); width ctx a
  | Table (name, idx) ->
    ignore (width ctx idx);
    snd (ctx.table_shape name)
  | Concat (hi, lo) -> clamp_width (width ctx hi + width ctx lo)
  | Extract (a, lo, w) ->
    let wa = width ctx a in
    if lo < 0 || w <= 0 || lo + w > 64 then
      werr "extract [%d +%d] out of range" lo w
    else if lo >= wa then werr "extract low bit %d beyond source width %d" lo wa
    else w
  | Tie_mac (a, b, c) ->
    clamp_width (max (width ctx a + width ctx b) (width ctx c) + 1)
  | Tie_add (a, b, c) | Tie_csa (a, b, c) ->
    clamp_width (max (width ctx a) (max (width ctx b) (width ctx c)) + 1)

type env = {
  arg : string -> int;
  state : string -> int;
  table : string -> int -> int;
}

let mask w v = if w >= 63 then v else v land ((1 lsl w) - 1)

let rec eval ctx env e =
  let w = width ctx e in
  let v =
    match e with
    | Arg name -> env.arg name
    | State name -> env.state name
    | Const (v, _) -> v
    | Mul (a, b) | Tie_mult (a, b) -> eval ctx env a * eval ctx env b
    | Add (a, b) -> eval ctx env a + eval ctx env b
    | Sub (a, b) -> eval ctx env a - eval ctx env b
    | Cmp (op, a, b) ->
      let va = eval ctx env a and vb = eval ctx env b in
      let signed x wid =
        let m = mask wid x in
        if wid < 63 && m land (1 lsl (wid - 1)) <> 0 then m - (1 lsl wid)
        else m
      in
      let wa = width ctx a and wb = width ctx b in
      let r =
        match op with
        | Ceq -> va = vb
        | Cltu -> va < vb
        | Clt -> signed va wa < signed vb wb
      in
      if r then 1 else 0
    | And (a, b) -> eval ctx env a land eval ctx env b
    | Or (a, b) -> eval ctx env a lor eval ctx env b
    | Xor (a, b) -> eval ctx env a lxor eval ctx env b
    | Not a -> lnot (eval ctx env a)
    | Reduce (op, a) ->
      let v = eval ctx env a and wa = width ctx a in
      let rec bits i acc =
        if i >= wa then acc else bits (i + 1) (((v lsr i) land 1) :: acc)
      in
      let bs = bits 0 [] in
      let r =
        match op with
        | Rand -> List.for_all (fun b -> b = 1) bs
        | Ror -> List.exists (fun b -> b = 1) bs
        | Rxor -> List.fold_left ( lxor ) 0 bs = 1
      in
      if r then 1 else 0
    | Mux (sel, a, b) ->
      if eval ctx env sel <> 0 then eval ctx env a else eval ctx env b
    | Shl (a, b) -> eval ctx env a lsl (eval ctx env b land 63)
    | Shr (a, b) -> eval ctx env a lsr (eval ctx env b land 63)
    | Sar (a, b) ->
      let wa = width ctx a in
      let va = eval ctx env a in
      let signed =
        if wa < 63 && va land (1 lsl (wa - 1)) <> 0 then va - (1 lsl wa)
        else va
      in
      signed asr (eval ctx env b land 63)
    | Table (name, idx) ->
      let entries, _ = ctx.table_shape name in
      env.table name (eval ctx env idx mod entries)
    | Concat (hi, lo) ->
      let wlo = width ctx lo in
      (eval ctx env hi lsl wlo) lor eval ctx env lo
    | Extract (a, lo, _) -> eval ctx env a lsr lo
    | Tie_mac (a, b, c) -> (eval ctx env a * eval ctx env b) + eval ctx env c
    | Tie_add (a, b, c) | Tie_csa (a, b, c) ->
      eval ctx env a + eval ctx env b + eval ctx env c
  in
  mask w v

(* --- Compilation to closures --------------------------------------------

   [eval] re-derives [width] at every node of every evaluation, walks
   string-keyed association lists for operands and hash tables for
   states, and allocates a bit list per reduction.  None of that depends
   on the runtime values, so [compile] hoists it all: widths (hence
   masks) become captured integers, operand/state references become
   array indices, and table lookups capture the data array.  What
   remains per evaluation is one closure call per node over two int
   arrays — a frame of positional operand values followed by scratch
   slots, and state values.  The closures hold no mutable state of
   their own, so one compiled expression may run on several threads at
   once, each over its own frame. *)

type compiled_fn = int array -> int array -> int

let cmask w = if w >= 63 then -1 else (1 lsl w) - 1

let subexprs = function
  | Arg _ | State _ | Const _ -> []
  | Not a | Reduce (_, a) | Table (_, a) | Extract (a, _, _) -> [ a ]
  | Mul (a, b) | Add (a, b) | Sub (a, b) | Cmp (_, a, b)
  | And (a, b) | Or (a, b) | Xor (a, b)
  | Shl (a, b) | Shr (a, b) | Sar (a, b)
  | Concat (a, b) | Tie_mult (a, b) ->
    [ a; b ]
  | Mux (a, b, c) | Tie_mac (a, b, c) | Tie_add (a, b, c)
  | Tie_csa (a, b, c) ->
    [ a; b; c ]

(* Specifications write expressions as trees, but let-bound
   intermediates (the datapath idiom) make them DAGs: the same
   subexpression object appears under several parents, and a plain tree
   walk re-evaluates it per appearance.  Expressions are pure and total,
   so any subexpression occurring at two or more evaluation sites is
   hoisted into a prelude that runs once per evaluation and stores its
   (masked) value in a scratch slot; references compile to a slot read.
   This also means a hoisted node under a [Mux] branch is evaluated even
   when the branch is not taken — harmless for the same reason (purity),
   and cheaper than re-evaluating it lazily at each of its sites.
   [shared_nodes] returns the hoisted nodes' slot numbers and the nodes
   themselves, last-assigned first. *)
let shared_nodes e =
  let counts = Hashtbl.create 16 in
  let rec count e =
    match e with
    | Arg _ | State _ | Const _ -> ()
    | _ ->
      let n = try Hashtbl.find counts e with Not_found -> 0 in
      Hashtbl.replace counts e (n + 1);
      (* Children are counted on the first visit only: below a node
         evaluated once, each child contributes one evaluation site. *)
      if n = 0 then List.iter count (subexprs e)
  in
  count e;
  let slot_of = Hashtbl.create 8 in
  let shared = ref [] in
  let seen = Hashtbl.create 16 in
  let rec assign e =
    match e with
    | Arg _ | State _ | Const _ -> ()
    | _ ->
      if not (Hashtbl.mem seen e) then begin
        Hashtbl.add seen e ();
        List.iter assign (subexprs e);
        (* postorder: a hoisted node's slot index is strictly greater
           than those of any hoisted node it depends on *)
        if Hashtbl.find counts e >= 2 then begin
          Hashtbl.add slot_of e (Hashtbl.length slot_of);
          shared := e :: !shared
        end
      end
  in
  assign e;
  (slot_of, !shared)

let scratch_slots e = Hashtbl.length (fst (shared_nodes e))

let compile ctx ~arg ~state ~table ~scratch e =
  let slot_of, shared = shared_nodes e in
  let nshared = Hashtbl.length slot_of in
  (* Per-node closure calls are indirect and the compiler cannot fuse
     them, so the frequent leaf shapes — operands, operand bit-fields,
     and operators applied directly to them — are pattern-matched into
     single closures before the generic per-constructor arms.  Fused
     arms re-apply each child's own mask exactly as nested [comp] calls
     would; for [Arg] leaves it is a no-op (operand slots are pre-masked
     to their width) but it keeps the fused and generic forms
     interchangeable bit for bit. *)
  let rec comp e : compiled_fn =
    match Hashtbl.find_opt slot_of e with
    | Some id ->
      let i = scratch + id in
      fun a _ -> Array.unsafe_get a i
    | None -> comp_node e
  and comp_node e : compiled_fn =
    let w = width ctx e in
    (* [mask w v] is [v land m] with m = -1 standing in for "no mask"
       (v land -1 = v), so every arm can mask branch-free. *)
    let m = if w >= 63 then -1 else (1 lsl w) - 1 in
    match e with
    | Arg name ->
      let i = arg name in
      fun a _ -> Array.unsafe_get a i land m
    | State name ->
      let i = state name in
      fun _ s -> Array.unsafe_get s i land m
    | Const (v, _) ->
      let v = v land m in
      fun _ _ -> v
    (* fused: operators over operand leaves and operand bit-fields *)
    | Extract (Arg x, lo, _) ->
      let i = arg x in
      let mx = cmask (ctx.arg_width x) in
      fun a _ -> (Array.unsafe_get a i land mx) lsr lo land m
    | Add (Arg x, Arg y) ->
      let i = arg x and j = arg y in
      let mx = cmask (ctx.arg_width x) and my = cmask (ctx.arg_width y) in
      fun a _ ->
        ((Array.unsafe_get a i land mx) + (Array.unsafe_get a j land my))
        land m
    | Sub (Arg x, Arg y) ->
      let i = arg x and j = arg y in
      let mx = cmask (ctx.arg_width x) and my = cmask (ctx.arg_width y) in
      fun a _ ->
        ((Array.unsafe_get a i land mx) - (Array.unsafe_get a j land my))
        land m
    | (Mul (Arg x, Arg y) | Tie_mult (Arg x, Arg y)) ->
      let i = arg x and j = arg y in
      let mx = cmask (ctx.arg_width x) and my = cmask (ctx.arg_width y) in
      fun a _ ->
        (Array.unsafe_get a i land mx) * (Array.unsafe_get a j land my)
        land m
    | And (Arg x, Arg y) ->
      let i = arg x and j = arg y in
      let mx = cmask (ctx.arg_width x) and my = cmask (ctx.arg_width y) in
      fun a _ ->
        Array.unsafe_get a i land mx land (Array.unsafe_get a j land my)
        land m
    | Or (Arg x, Arg y) ->
      let i = arg x and j = arg y in
      let mx = cmask (ctx.arg_width x) and my = cmask (ctx.arg_width y) in
      fun a _ ->
        ((Array.unsafe_get a i land mx) lor (Array.unsafe_get a j land my))
        land m
    | Xor (Arg x, Arg y) ->
      let i = arg x and j = arg y in
      let mx = cmask (ctx.arg_width x) and my = cmask (ctx.arg_width y) in
      fun a _ ->
        ((Array.unsafe_get a i land mx) lxor (Array.unsafe_get a j land my))
        land m
    | (Mul (Extract (Arg x, lx, _), Extract (Arg y, ly, _))
      | Tie_mult (Extract (Arg x, lx, _), Extract (Arg y, ly, _))) as e0 ->
      let ex, ey =
        match e0 with
        | Mul (ex, ey) | Tie_mult (ex, ey) -> (ex, ey)
        | _ -> assert false
      in
      let mex = cmask (width ctx ex) and mey = cmask (width ctx ey) in
      let i = arg x and j = arg y in
      let mx = cmask (ctx.arg_width x) and my = cmask (ctx.arg_width y) in
      fun a _ ->
        ((Array.unsafe_get a i land mx) lsr lx land mex)
        * ((Array.unsafe_get a j land my) lsr ly land mey)
        land m
    | Tie_add (Arg x, Arg y, Arg z) | Tie_csa (Arg x, Arg y, Arg z) ->
      let i = arg x and j = arg y and k = arg z in
      let mx = cmask (ctx.arg_width x)
      and my = cmask (ctx.arg_width y)
      and mz = cmask (ctx.arg_width z) in
      fun a _ ->
        ((Array.unsafe_get a i land mx)
         + (Array.unsafe_get a j land my)
         + (Array.unsafe_get a k land mz))
        land m
    | Tie_mac (Extract (Arg x, lx, _) as ex, (Extract (Arg y, ly, _) as ey),
               (Extract (Arg z, lz, _) as ez)) ->
      let mex = cmask (width ctx ex)
      and mey = cmask (width ctx ey)
      and mez = cmask (width ctx ez) in
      let i = arg x and j = arg y and k = arg z in
      let mx = cmask (ctx.arg_width x)
      and my = cmask (ctx.arg_width y)
      and mz = cmask (ctx.arg_width z) in
      fun a _ ->
        (((Array.unsafe_get a i land mx) lsr lx land mex)
         * ((Array.unsafe_get a j land my) lsr ly land mey)
         + ((Array.unsafe_get a k land mz) lsr lz land mez))
        land m
    | Table (name, Arg x) ->
      let entries, _ = ctx.table_shape name in
      let data = table name in
      let i = arg x in
      let mx = cmask (ctx.arg_width x) in
      fun a _ -> data.(Array.unsafe_get a i land mx mod entries) land m
    | Table (name, (Extract (Arg x, lo, _) as ei)) ->
      let entries, _ = ctx.table_shape name in
      let data = table name in
      let mei = cmask (width ctx ei) in
      let i = arg x in
      let mx = cmask (ctx.arg_width x) in
      fun a _ ->
        data.((Array.unsafe_get a i land mx) lsr lo land mei mod entries)
        land m
    (* reductions over operand leaves, and the [widen1]/mux idioms *)
    | Not (Arg x) ->
      let i = arg x in
      let mx = cmask (ctx.arg_width x) in
      fun a _ -> lnot (Array.unsafe_get a i land mx) land m
    | And (Reduce (Ror, Arg x), Reduce (Ror, Arg y)) ->
      let i = arg x and j = arg y in
      let mx = cmask (ctx.arg_width x) and my = cmask (ctx.arg_width y) in
      fun a _ ->
        if
          Array.unsafe_get a i land mx <> 0
          && Array.unsafe_get a j land my <> 0
        then 1
        else 0
    | Reduce (Ror, Arg x) ->
      let i = arg x in
      let mx = cmask (ctx.arg_width x) in
      fun a _ -> if Array.unsafe_get a i land mx <> 0 then 1 else 0
    | Concat (Const (v, wc), lo) ->
      let wlo = width ctx lo in
      let hi = (v land cmask wc) lsl wlo in
      let fl = comp lo in
      fun a s -> (hi lor fl a s) land m
    | Concat (hi, Const (v, wc)) ->
      let vl = v land cmask wc in
      let fh = comp hi in
      fun a s -> ((fh a s lsl wc) lor vl) land m
    | Mux (Extract (Arg c, lo, _) as sel, x, y) ->
      let msel = cmask (width ctx sel) in
      let ci = arg c in
      let mc = cmask (ctx.arg_width c) in
      let fx = comp x and fy = comp y in
      fun a s ->
        (if (Array.unsafe_get a ci land mc) lsr lo land msel <> 0 then fx a s
         else fy a s)
        land m
    | Mux (sel, x, Const (v, wc)) ->
      let vv = v land cmask wc in
      let fs = comp sel and fx = comp x in
      fun a s -> (if fs a s <> 0 then fx a s else vv) land m
    | Mux (sel, Const (v, wc), y) ->
      let vv = v land cmask wc in
      let fs = comp sel and fy = comp y in
      fun a s -> (if fs a s <> 0 then vv else fy a s) land m
    (* one-operand-leaf forms of the commutative/affine operators *)
    | Add (x, Arg y) | Add (Arg y, x) ->
      let fx = comp x in
      let j = arg y in
      let my = cmask (ctx.arg_width y) in
      fun a s -> (fx a s + (Array.unsafe_get a j land my)) land m
    | Sub (x, Arg y) ->
      let fx = comp x in
      let j = arg y in
      let my = cmask (ctx.arg_width y) in
      fun a s -> (fx a s - (Array.unsafe_get a j land my)) land m
    | Xor (x, Arg y) | Xor (Arg y, x) ->
      let fx = comp x in
      let j = arg y in
      let my = cmask (ctx.arg_width y) in
      fun a s -> (fx a s lxor (Array.unsafe_get a j land my)) land m
    | And (x, Arg y) | And (Arg y, x) ->
      let fx = comp x in
      let j = arg y in
      let my = cmask (ctx.arg_width y) in
      fun a s -> fx a s land (Array.unsafe_get a j land my) land m
    | Or (x, Arg y) | Or (Arg y, x) ->
      let fx = comp x in
      let j = arg y in
      let my = cmask (ctx.arg_width y) in
      fun a s -> (fx a s lor (Array.unsafe_get a j land my)) land m
    (* generic arms *)
    | Mul (x, y) | Tie_mult (x, y) ->
      let fx = comp x and fy = comp y in
      fun a s -> fx a s * fy a s land m
    | Add (x, y) ->
      let fx = comp x and fy = comp y in
      fun a s -> (fx a s + fy a s) land m
    | Sub (x, y) ->
      let fx = comp x and fy = comp y in
      fun a s -> (fx a s - fy a s) land m
    | Cmp (op, x, y) -> (
      let fx = comp x and fy = comp y in
      match op with
      | Ceq -> fun a s -> if fx a s = fy a s then 1 else 0
      | Cltu -> fun a s -> if fx a s < fy a s then 1 else 0
      | Clt ->
        let wx = width ctx x and wy = width ctx y in
        let signed x wid =
          let mm = mask wid x in
          if wid < 63 && mm land (1 lsl (wid - 1)) <> 0 then mm - (1 lsl wid)
          else mm
        in
        fun a s -> if signed (fx a s) wx < signed (fy a s) wy then 1 else 0)
    | And (x, y) ->
      let fx = comp x and fy = comp y in
      fun a s -> fx a s land fy a s land m
    | Or (x, y) ->
      let fx = comp x and fy = comp y in
      fun a s -> (fx a s lor fy a s) land m
    | Xor (x, y) ->
      let fx = comp x and fy = comp y in
      fun a s -> (fx a s lxor fy a s) land m
    | Not x ->
      let fx = comp x in
      fun a s -> lnot (fx a s) land m
    | Reduce (op, x) -> (
      let fx = comp x in
      let wx = width ctx x in
      match op with
      | Rand when wx <= 63 ->
        (* AND-reduce: 1 iff every one of the [wx] bits is set. *)
        let full = cmask wx in
        fun a s -> if fx a s = full then 1 else 0
      | Rand ->
        fun a s ->
          let v = fx a s in
          let ok = ref true in
          for i = 0 to wx - 1 do
            if (v lsr i) land 1 <> 1 then ok := false
          done;
          if !ok then 1 else 0
      | Ror ->
        (* OR-reduce: the child value carries no bits beyond its width,
           so this is exactly a non-zero test. *)
        fun a s -> if fx a s <> 0 then 1 else 0
      | Rxor ->
        fun a s ->
          let v = fx a s in
          let p = ref 0 in
          for i = 0 to wx - 1 do
            p := !p lxor ((v lsr i) land 1)
          done;
          !p)
    | Mux (sel, x, y) ->
      (* Lazy, exactly like [eval]: only the selected branch runs. *)
      let fs = comp sel and fx = comp x and fy = comp y in
      fun a s -> (if fs a s <> 0 then fx a s else fy a s) land m
    | Shl (x, y) ->
      let fx = comp x and fy = comp y in
      fun a s -> fx a s lsl (fy a s land 63) land m
    | Shr (x, y) ->
      let fx = comp x and fy = comp y in
      fun a s -> fx a s lsr (fy a s land 63) land m
    | Sar (x, y) ->
      let wx = width ctx x in
      let fx = comp x and fy = comp y in
      fun a s ->
        let vx = fx a s in
        let signed =
          if wx < 63 && vx land (1 lsl (wx - 1)) <> 0 then vx - (1 lsl wx)
          else vx
        in
        signed asr (fy a s land 63) land m
    | Table (name, idx) ->
      let entries, _ = ctx.table_shape name in
      let data = table name in
      let fi = comp idx in
      fun a s -> data.(fi a s mod entries) land m
    | Concat (hi, lo) ->
      let wlo = width ctx lo in
      let fh = comp hi and fl = comp lo in
      fun a s -> ((fh a s lsl wlo) lor fl a s) land m
    | Extract (x, lo, _) ->
      let fx = comp x in
      fun a s -> (fx a s lsr lo) land m
    | Tie_mac (x, y, z) ->
      let fx = comp x and fy = comp y and fz = comp z in
      fun a s -> ((fx a s * fy a s) + fz a s) land m
    | Tie_add (x, y, z) | Tie_csa (x, y, z) ->
      let fx = comp x and fy = comp y and fz = comp z in
      fun a s -> (fx a s + fy a s + fz a s) land m
  in
  if nshared = 0 then comp_node e
  else begin
    let prelude = Array.make nshared (fun _ _ -> 0) in
    List.iter
      (fun e -> prelude.(Hashtbl.find slot_of e) <- comp_node e)
      shared;
    let froot = comp_node e in
    fun a s ->
      for i = 0 to nshared - 1 do
        Array.unsafe_set a (scratch + i) ((Array.unsafe_get prelude i) a s)
      done;
      froot a s
  end

let rec fold f acc e =
  List.fold_left (fold f) (f acc e) (subexprs e)

let node_delay = function
  | Arg _ | State _ | Const _ | Concat _ | Extract _ -> 0.0
  | Mul _ | Tie_mult _ -> 3.0
  | Tie_mac _ -> 3.5
  | Add _ | Sub _ | Cmp _ | Tie_add _ -> 1.0
  | Tie_csa _ -> 0.5
  | And _ | Or _ | Xor _ | Not _ | Mux _ -> 0.3
  | Reduce _ -> 0.8
  | Shl _ | Shr _ | Sar _ -> 1.0
  | Table _ -> 1.5

let rec depth_delay e =
  let children = subexprs e in
  let deepest = List.fold_left (fun m c -> Float.max m (depth_delay c)) 0.0 children in
  node_delay e +. deepest
