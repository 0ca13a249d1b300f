type block = {
  b_index : int;
  b_addr : int;
  b_last : int;
  b_label : string;
  b_slots : int;
  mutable b_entries : int;
  mutable b_retired : int;
  mutable b_cycles : int;
  mutable b_stall_cycles : int;
  mutable b_icache_misses : int;
  mutable b_dcache_misses : int;
  mutable b_energy_pj : float;
}

type opcode_row = {
  op_name : string;
  op_hits : int;
  op_cycles : int;
  op_energy_pj : float;
}

type report = {
  r_workload : string;
  r_asm : Isa.Program.asm;
  r_blocks : block array;
  r_hot : block array;
  r_slots : Obs.Profile.t;
  r_opcodes : opcode_row list;
  r_folded : (string * int * float) list;
  r_breakdown : Attribution.breakdown;
  r_cycles : int;
  r_instructions : int;
  r_total_pj : float;
  r_cycle_gap : int;
  r_energy_gap : float;
}

(* Mutable per-opcode accumulator (keys are mnemonics). *)
type op_acc = {
  mutable oa_hits : int;
  mutable oa_cycles : int;
  mutable oa_energy : float;
}

type t = {
  case : Extract.case;
  attr : Attribution.t;
  blocks : block array;
  block_of_slot : int array;
  sym_at : (int, string) Hashtbl.t;   (* code address -> symbol name *)
  per_slot : Obs.Profile.t;
  slot_cache : Obs.Profile.slot option array;
  (** interned per-slot accumulators, filled lazily on first retirement
      so untouched slots never appear in [per_slot] *)
  opcodes : (string, op_acc) Hashtbl.t;
  op_of_slot : op_acc array;
  (** the program is static, so each slot's mnemonic accumulator can be
      resolved once at creation instead of per event *)
  stacks : Obs.Profile.Stacks.stack;
  mutable prev_kind : int;
  (** control class of the previous retirement: 0 = other/none,
      1 = call, 2 = return — an int so the per-event store does not
      allocate the way [Some instr] would *)
  mutable events : int;
}

let bpi = Isa.Encoding.bytes_per_instr

(* Basic-block discovery is delegated to {!Sim.Decoder}: the profiler
   accounts over exactly the partition the threaded execution backend
   dispatches, so the two agree on block identity by construction.
   Each static block gets a mutable accumulator here. *)
let blocks_of_decoder (d : Sim.Decoder.t) =
  Array.map
    (fun (b : Sim.Decoder.block) ->
      { b_index = b.Sim.Decoder.blk_index;
        b_addr = b.Sim.Decoder.blk_addr;
        b_last = b.Sim.Decoder.blk_last;
        b_label = b.Sim.Decoder.blk_label;
        b_slots = b.Sim.Decoder.blk_slots;
        b_entries = 0;
        b_retired = 0;
        b_cycles = 0;
        b_stall_cycles = 0;
        b_icache_misses = 0;
        b_dcache_misses = 0;
        b_energy_pj = 0.0 })
    d.Sim.Decoder.blocks

let create ?bucket_cycles ?complexity ?max_depth ~config model
    (c : Extract.case) =
  let d = Sim.Decoder.analyze c.Extract.asm in
  let sym_at = d.Sim.Decoder.symbols in
  let blocks = blocks_of_decoder d in
  let block_of_slot = d.Sim.Decoder.block_of_slot in
  let opcodes = Hashtbl.create 64 in
  let op_of_slot =
    Array.map
      (fun slot ->
        let m = Isa.Instr.mnemonic slot.Isa.Program.instr in
        match Hashtbl.find_opt opcodes m with
        | Some oa -> oa
        | None ->
          let oa = { oa_hits = 0; oa_cycles = 0; oa_energy = 0.0 } in
          Hashtbl.add opcodes m oa;
          oa)
      c.Extract.asm.Isa.Program.code
  in
  { case = c;
    attr =
      Attribution.create ?bucket_cycles ?complexity
        ?extension:c.Extract.extension ~config model;
    blocks;
    block_of_slot;
    sym_at;
    per_slot = Obs.Profile.create ();
    slot_cache =
      Array.make (max (Array.length c.Extract.asm.Isa.Program.code) 1) None;
    opcodes;
    op_of_slot;
    stacks =
      Obs.Profile.Stacks.create ?max_depth ~root:c.Extract.case_name ();
    prev_kind = 0;
    events = 0 }

let frame_name t addr =
  match Hashtbl.find_opt t.sym_at addr with
  | Some s -> s
  | None -> Printf.sprintf "0x%x" addr

let observe t (e : Sim.Event.t) =
  let energy_pj = Attribution.observe_marginal t.attr e in
  let fpc = e.Sim.Event.fetch.Sim.Event.fpc in
  let base = t.case.Extract.asm.Isa.Program.code_base in
  let si = (fpc - base) / bpi in
  let icache_miss =
    (not e.Sim.Event.fetch.Sim.Event.funcached)
    && not e.Sim.Event.fetch.Sim.Event.fhit
  in
  let dcache_miss =
    match e.Sim.Event.mem with
    | Some mi -> (not mi.Sim.Event.muncached) && not mi.Sim.Event.mhit
    | None -> false
  in
  let cycles = e.Sim.Event.cycles in
  let stall_cycles = e.Sim.Event.stall_cycles in
  (if si >= 0 && si < Array.length t.block_of_slot then begin
     let b = t.blocks.(t.block_of_slot.(si)) in
     if fpc = b.b_addr then b.b_entries <- b.b_entries + 1;
     b.b_retired <- b.b_retired + 1;
     b.b_cycles <- b.b_cycles + cycles;
     b.b_stall_cycles <- b.b_stall_cycles + stall_cycles;
     if icache_miss then b.b_icache_misses <- b.b_icache_misses + 1;
     if dcache_miss then b.b_dcache_misses <- b.b_dcache_misses + 1;
     b.b_energy_pj <- b.b_energy_pj +. energy_pj;
     (* Call/return tracking lives entirely in the event stream: the
        instruction after a call executes at the callee's entry, the
        one after a return back in the caller. *)
     (if t.prev_kind = 1 then
        Obs.Profile.Stacks.push t.stacks (frame_name t fpc)
      else if t.prev_kind = 2 then Obs.Profile.Stacks.pop t.stacks);
     Obs.Profile.Stacks.record_leaf t.stacks ~frame:b.b_label ~cycles
       ~energy_pj
   end);
  (if si >= 0 && si < Array.length t.op_of_slot then begin
     let s =
       match t.slot_cache.(si) with
       | Some s -> s
       | None ->
         let s = Obs.Profile.slot_for t.per_slot si in
         t.slot_cache.(si) <- Some s;
         s
     in
     s.Obs.Profile.hits <- s.Obs.Profile.hits + 1;
     s.Obs.Profile.cycles <- s.Obs.Profile.cycles + cycles;
     s.Obs.Profile.stall_cycles <- s.Obs.Profile.stall_cycles + stall_cycles;
     if icache_miss then
       s.Obs.Profile.icache_misses <- s.Obs.Profile.icache_misses + 1;
     if dcache_miss then
       s.Obs.Profile.dcache_misses <- s.Obs.Profile.dcache_misses + 1;
     s.Obs.Profile.energy_pj <- s.Obs.Profile.energy_pj +. energy_pj;
     let oa = t.op_of_slot.(si) in
     oa.oa_hits <- oa.oa_hits + 1;
     oa.oa_cycles <- oa.oa_cycles + cycles;
     oa.oa_energy <- oa.oa_energy +. energy_pj
   end
   else begin
     (* Retirement outside the static code section (defensive; the
        fetch path should make this unreachable): fall back to the
        hashed accumulators so nothing is dropped. *)
     Obs.Profile.record t.per_slot ~stall_cycles ~icache_miss ~dcache_miss
       ~energy_pj ~cycles si;
     let m = Isa.Instr.mnemonic e.Sim.Event.instr in
     match Hashtbl.find_opt t.opcodes m with
     | Some oa ->
       oa.oa_hits <- oa.oa_hits + 1;
       oa.oa_cycles <- oa.oa_cycles + cycles;
       oa.oa_energy <- oa.oa_energy +. energy_pj
     | None ->
       Hashtbl.add t.opcodes m
         { oa_hits = 1; oa_cycles = cycles; oa_energy = energy_pj }
   end);
  t.prev_kind <-
    (match e.Sim.Event.instr with
     | Isa.Instr.Call0 _ | Isa.Instr.Callx0 _ | Isa.Instr.Call8 _
     | Isa.Instr.Callx8 _ -> 1
     | Isa.Instr.Ret | Isa.Instr.Retw -> 2
     | _ -> 0);
  t.events <- t.events + 1

let observer t : Sim.Cpu.observer = fun e -> observe t e

let finish t ~cycles ~instructions =
  let breakdown =
    Attribution.finish t.attr ~name:t.case.Extract.case_name ~cycles
      ~instructions
  in
  let cycle_sum = Array.fold_left (fun a b -> a + b.b_cycles) 0 t.blocks in
  let energy_sum =
    Array.fold_left (fun a b -> a +. b.b_energy_pj) 0.0 t.blocks
  in
  let total = breakdown.Attribution.total_pj in
  let hot =
    Array.of_list
      (List.sort
         (fun a b -> compare (b.b_cycles, b.b_index) (a.b_cycles, a.b_index))
         (List.filter (fun b -> b.b_retired > 0)
            (Array.to_list t.blocks)))
  in
  let opcodes =
    (* Skip mnemonics interned at creation but never retired, so the
       report only lists opcodes that actually executed. *)
    Hashtbl.fold
      (fun name oa acc ->
        if oa.oa_hits = 0 then acc
        else
          { op_name = name;
            op_hits = oa.oa_hits;
            op_cycles = oa.oa_cycles;
            op_energy_pj = oa.oa_energy }
        :: acc)
      t.opcodes []
    |> List.sort (fun a b ->
           compare (b.op_cycles, a.op_name) (a.op_cycles, b.op_name))
  in
  { r_workload = t.case.Extract.case_name;
    r_asm = t.case.Extract.asm;
    r_blocks = t.blocks;
    r_hot = hot;
    r_slots = t.per_slot;
    r_opcodes = opcodes;
    r_folded = Obs.Profile.Stacks.folded t.stacks;
    r_breakdown = breakdown;
    r_cycles = cycles;
    r_instructions = instructions;
    r_total_pj = total;
    r_cycle_gap = abs (cycle_sum - cycles);
    r_energy_gap =
      Float.abs (energy_sum -. total) /. Float.max (Float.abs total) 1.0 }

let check r =
  ( float_of_int r.r_cycle_gap /. Float.max (float_of_int r.r_cycles) 1.0,
    r.r_energy_gap )

module P_metrics = struct
  let runs = lazy (Obs.Metrics.counter ~help:"profiling runs" "profile_runs_total")
  let events =
    lazy (Obs.Metrics.counter ~help:"events folded by the profiler"
            "profile_events_total")
  let blocks =
    lazy (Obs.Metrics.counter ~help:"basic blocks discovered"
            "profile_blocks_total")
  let seconds =
    lazy (Obs.Metrics.histogram ~help:"profiled simulation wall time"
            "profile_seconds")
end

let run ?(config = Sim.Config.default) ?bucket_cycles ?complexity ?max_depth
    ?(observers = []) model (c : Extract.case) =
  Obs.Trace.with_span ~cat:"profile" ("profile:" ^ c.Extract.case_name)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let t = create ?bucket_cycles ?complexity ?max_depth ~config model c in
  let cpu, _outcome =
    Sim.Backend.run_program ~config ?extension:c.Extract.extension
      ~observers:(observer t :: observers)
      c.Extract.asm
  in
  let r =
    finish t ~cycles:(Sim.Cpu.cycles cpu)
      ~instructions:(Sim.Cpu.instructions cpu)
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.inc (Lazy.force P_metrics.runs);
    Obs.Metrics.inc ~by:t.events (Lazy.force P_metrics.events);
    Obs.Metrics.inc ~by:(Array.length t.blocks) (Lazy.force P_metrics.blocks);
    Obs.Metrics.observe (Lazy.force P_metrics.seconds)
      (Unix.gettimeofday () -. t0)
  end;
  r

let share part whole =
  if Float.abs whole < 1e-12 then 0.0 else 100.0 *. part /. whole

let pp_table ?(top = 10) ppf r =
  let executed = Array.length r.r_hot in
  Format.fprintf ppf
    "@[<v>%s: %d instructions, %d cycles, %.3f uJ estimated@,\
     %d basic blocks (%d executed)@,@,"
    r.r_workload r.r_instructions r.r_cycles (r.r_total_pj /. 1.0e6)
    (Array.length r.r_blocks) executed;
  Format.fprintf ppf
    "%4s %-24s %8s %8s %9s %6s %6s %8s %10s %6s@," "rank" "block" "addr"
    "entries" "cycles" "cyc%" "cum%" "stalls" "energy uJ" "en%";
  let cum = ref 0.0 in
  Array.iteri
    (fun i b ->
      if i < top then begin
        let cyc_pct = share (float_of_int b.b_cycles) (float_of_int r.r_cycles) in
        cum := !cum +. cyc_pct;
        Format.fprintf ppf
          "%4d %-24s %8x %8d %9d %5.1f%% %5.1f%% %8d %10.4f %5.1f%%@,"
          (i + 1) b.b_label b.b_addr b.b_entries b.b_cycles cyc_pct !cum
          b.b_stall_cycles
          (b.b_energy_pj /. 1.0e6)
          (share b.b_energy_pj r.r_total_pj)
      end)
    r.r_hot;
  if executed > top then
    Format.fprintf ppf "     ... %d more executed blocks@," (executed - top);
  Format.fprintf ppf "@]"

let pp_opcodes ppf r =
  Format.fprintf ppf "@[<v>%-12s %10s %10s %6s %10s %6s@," "opcode" "count"
    "cycles" "cyc%" "energy uJ" "en%";
  List.iter
    (fun o ->
      Format.fprintf ppf "%-12s %10d %10d %5.1f%% %10.4f %5.1f%%@," o.op_name
        o.op_hits o.op_cycles
        (share (float_of_int o.op_cycles) (float_of_int r.r_cycles))
        (o.op_energy_pj /. 1.0e6)
        (share o.op_energy_pj r.r_total_pj))
    r.r_opcodes;
  Format.fprintf ppf "@]"

let pp_annotate ppf r =
  let asm = r.r_asm in
  let code = asm.Isa.Program.code in
  let sym_at = Sim.Decoder.code_symbols asm in
  Format.fprintf ppf "@[<v>%s: annotated disassembly (%d cycles, %.3f uJ)@,@,"
    r.r_workload r.r_cycles (r.r_total_pj /. 1.0e6);
  Format.fprintf ppf "%8s %9s %6s %6s  %s@," "count" "cycles" "cyc%" "en%"
    "instruction";
  Array.iteri
    (fun i slot ->
      let addr = slot.Isa.Program.addr in
      (match Hashtbl.find_opt sym_at addr with
       | Some s -> Format.fprintf ppf "%s:@," s
       | None -> ());
      match Obs.Profile.find r.r_slots i with
      | Some s ->
        Format.fprintf ppf "%8d %9d %5.1f%% %5.1f%%  %06x:  %a@," s.Obs.Profile.hits
          s.Obs.Profile.cycles
          (share (float_of_int s.Obs.Profile.cycles) (float_of_int r.r_cycles))
          (share s.Obs.Profile.energy_pj r.r_total_pj)
          addr Isa.Instr.pp slot.Isa.Program.instr
      | None ->
        Format.fprintf ppf "%8s %9s %6s %6s  %06x:  %a@," "." "." "." "." addr
          Isa.Instr.pp slot.Isa.Program.instr)
    code;
  Format.fprintf ppf "@]"

let folded_lines ?(energy = false) r =
  let b = Buffer.create 4096 in
  List.iter
    (fun (stack, cycles, energy_pj) ->
      let count =
        if energy then int_of_float (Float.round energy_pj) else cycles
      in
      if count > 0 then Buffer.add_string b (Printf.sprintf "%s %d\n" stack count))
    r.r_folded;
  Buffer.contents b

module J = Obs.Json

let json ?top r =
  let hot =
    match top with
    | None -> Array.to_list r.r_hot
    | Some n -> Array.to_list (Array.sub r.r_hot 0 (min n (Array.length r.r_hot)))
  in
  let block_json b =
    J.Obj
      [ ("label", J.Str b.b_label);
        ("addr", J.int b.b_addr);
        ("last_addr", J.int b.b_last);
        ("instructions", J.int b.b_slots);
        ("entries", J.int b.b_entries);
        ("retired", J.int b.b_retired);
        ("cycles", J.int b.b_cycles);
        ("stall_cycles", J.int b.b_stall_cycles);
        ("icache_misses", J.int b.b_icache_misses);
        ("dcache_misses", J.int b.b_dcache_misses);
        ("energy_pj", J.Num b.b_energy_pj) ]
  in
  let op_json o =
    J.Obj
      [ ("opcode", J.Str o.op_name);
        ("count", J.int o.op_hits);
        ("cycles", J.int o.op_cycles);
        ("energy_pj", J.Num o.op_energy_pj) ]
  in
  J.Obj
    [ ("workload", J.Str r.r_workload);
      ("units", J.Obj [ ("energy_pj", J.Str "picojoules") ]);
      ("cycles", J.int r.r_cycles);
      ("instructions", J.int r.r_instructions);
      ("total_energy_pj", J.Num r.r_total_pj);
      ("blocks_total", J.int (Array.length r.r_blocks));
      ("blocks_executed", J.int (Array.length r.r_hot));
      ("cycle_gap", J.int r.r_cycle_gap);
      ("energy_gap_rel", J.Num r.r_energy_gap);
      ("blocks", J.Arr (List.map block_json hot));
      ("opcodes", J.Arr (List.map op_json r.r_opcodes)) ]

let to_json ?top r = J.to_string (json ?top r)
