type t = {
  name : string;
  mutable rev_items : Program.item list;
  mutable rev_literals : (string * Program.lit_value) list;
  mutable rev_data : Program.data_block list;
  mutable next_label : int;
}

let create name =
  { name; rev_items = []; rev_literals = []; rev_data = []; next_label = 0 }

let insn b i = b.rev_items <- Program.Insn i :: b.rev_items

let repeat b n body =
  let items = Array.map (fun i -> Program.Insn i) body in
  for k = 0 to n - 1 do
    b.rev_items <- items.(k mod Array.length items) :: b.rev_items
  done

let label b name = b.rev_items <- Program.Label name :: b.rev_items

let fresh b stem =
  let n = b.next_label in
  b.next_label <- n + 1;
  Printf.sprintf "%s$%d" stem n

let lit b name v =
  b.rev_literals <- (name, Program.Lit_int v) :: b.rev_literals

let lit_addr b name label =
  b.rev_literals <- (name, Program.Lit_addr label) :: b.rev_literals

let bytes_block b name addr data =
  b.rev_data <-
    { Program.dname = name; daddr = addr; dbytes = data } :: b.rev_data

let bytes b name data = bytes_block b name None data

let bytes_at b name ~addr data = bytes_block b name (Some addr) data

let words b name ws =
  let n = Array.length ws in
  let data = Array.make (4 * n) 0 in
  Array.iteri
    (fun i w ->
      for k = 0 to 3 do
        data.((4 * i) + k) <- (w lsr (8 * k)) land 0xff
      done)
    ws;
  bytes b name data

let seal b =
  { Program.pname = b.name;
    items = List.rev b.rev_items;
    literals = List.rev b.rev_literals;
    data = List.rev b.rev_data }

let a0 = Reg.a 0
let a1 = Reg.a 1
let a2 = Reg.a 2
let a3 = Reg.a 3
let a4 = Reg.a 4
let a5 = Reg.a 5
let a6 = Reg.a 6
let a7 = Reg.a 7
let a8 = Reg.a 8
let a9 = Reg.a 9
let a10 = Reg.a 10
let a11 = Reg.a 11
let a12 = Reg.a 12
let a13 = Reg.a 13
let a14 = Reg.a 14
let a15 = Reg.a 15

open Instr

let bin op b d s t = insn b (Binop (op, d, s, t))
let add = bin Add
let addx2 = bin Addx2
let addx4 = bin Addx4
let addx8 = bin Addx8
let sub = bin Sub
let subx2 = bin Subx2
let subx4 = bin Subx4
let subx8 = bin Subx8
let and_ = bin And_
let or_ = bin Or_
let xor = bin Xor
let min_ = bin Min
let max_ = bin Max
let minu = bin Minu
let maxu = bin Maxu
let mul16s = bin Mul16s
let mul16u = bin Mul16u
let mull = bin Mull

let un op b d s = insn b (Unop (op, d, s))
let abs_ = un Abs
let neg = un Neg
let nsa = un Nsa
let nsau = un Nsau
let sext b d s n = insn b (Sext (d, s, n))

let cm op b d s t = insn b (Cmov (op, d, s, t))
let moveqz = cm Moveqz
let movnez = cm Movnez
let movltz = cm Movltz
let movgez = cm Movgez

let addi b d s n = insn b (Addi (d, s, n))
let addmi b d s n = insn b (Addmi (d, s, n))
let movi b d n = insn b (Movi (d, n))
let mov b d s = insn b (Mov (d, s))
let extui b d s sh w = insn b (Extui (d, s, sh, w))
let slli b d s n = insn b (Slli (d, s, n))
let srli b d s n = insn b (Srli (d, s, n))
let srai b d s n = insn b (Srai (d, s, n))
let sll b d s = insn b (Sll (d, s))
let srl b d s = insn b (Srl (d, s))
let sra b d s = insn b (Sra (d, s))
let src b d s t = insn b (Src (d, s, t))
let ssai b n = insn b (Ssai n)
let ssl b s = insn b (Ssl s)
let ssr b s = insn b (Ssr s)

let ld op b d base off = insn b (Load (op, d, base, off))
let l8ui = ld L8ui
let l16si = ld L16si
let l16ui = ld L16ui
let l32i = ld L32i
let l32r b d name = insn b (L32r (d, name))

let st op b v base off = insn b (Store (op, v, base, off))
let s8i = st S8i
let s16i = st S16i
let s32i = st S32i

let b2 c b s t l = insn b (Branch2 (c, s, t, l))
let beq = b2 Beq
let bne = b2 Bne
let blt = b2 Blt
let bge = b2 Bge
let bltu = b2 Bltu
let bgeu = b2 Bgeu
let bany = b2 Bany
let bnone = b2 Bnone
let ball = b2 Ball
let bnall = b2 Bnall

let bi c b s n l = insn b (Branchi (c, s, n, l))
let beqi = bi Beqi
let bnei = bi Bnei
let blti = bi Blti
let bgei = bi Bgei
let bltui = bi Bltui
let bgeui = bi Bgeui

let bz c b s l = insn b (Branchz (c, s, l))
let beqz = bz Beqz
let bnez = bz Bnez
let bltz = bz Bltz
let bgez = bz Bgez

let bbc b s t l = insn b (Bbit (false, s, t, l))
let bbs b s t l = insn b (Bbit (true, s, t, l))
let bbci b s n l = insn b (Bbiti (false, s, n, l))
let bbsi b s n l = insn b (Bbiti (true, s, n, l))

let j b l = insn b (J l)
let jx b s = insn b (Jx s)
let call0 b l = insn b (Call0 l)
let callx0 b s = insn b (Callx0 s)
let call8 b l = insn b (Call8 l)
let callx8 b s = insn b (Callx8 s)
let ret b = insn b Ret
let retw b = insn b Retw
let entry b sp n = insn b (Entry (sp, n))
let nop b = insn b Nop
let memw b = insn b Memw
let extw b = insn b Extw
let isync b = insn b Isync
let break b = insn b Break

let custom b name ?dst ?imm srcs =
  insn b (Custom { cname = name; dst; srcs; cimm = imm })

let loop_n b ~cnt n body =
  let top = fresh b "loop" in
  movi b cnt n;
  label b top;
  body ();
  addi b cnt cnt (-1);
  bnez b cnt top

let halt = break
