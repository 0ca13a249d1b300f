type entry = {
  ename : string;
  wall_seconds : float;
  cycles : int;
  instructions : int;
  icache_misses : int;
  dcache_misses : int;
  stall_cycles : int;
  interlocks : int;
  energy_pj : float;
  simulations : int;
}

type degraded = {
  serial_fallbacks : int;
  failed_forks : int;
  recomputed_slices : int;
}

let no_degraded = { serial_fallbacks = 0; failed_forks = 0; recomputed_slices = 0 }

type t = {
  entries : entry list;
  total_seconds : float;
  jobs : int;
  parallel : degraded;
  sim_backend : string;
}

let total_simulations t =
  List.fold_left (fun acc e -> acc + e.simulations) 0 t.entries

let total_energy_pj t =
  List.fold_left (fun acc e -> acc +. e.energy_pj) 0.0 t.entries

let pp ppf t =
  Format.fprintf ppf "@[<v>%-24s %9s %10s %8s %7s %7s %7s %7s %12s %5s@,"
    "workload" "wall (s)" "cycles" "instrs" "i-miss" "d-miss" "stalls" "ilks"
    "energy (uJ)" "sims";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-24s %9.4f %10d %8d %7d %7d %7d %7d %12.3f %5d@,"
        e.ename e.wall_seconds e.cycles e.instructions e.icache_misses
        e.dcache_misses e.stall_cycles e.interlocks
        (e.energy_pj /. 1.0e6) e.simulations)
    t.entries;
  Format.fprintf ppf
    "%d workloads, %d simulations, %.3f uJ total, %.3f s wall clock \
     (%d worker%s)@,"
    (List.length t.entries) (total_simulations t)
    (total_energy_pj t /. 1.0e6)
    t.total_seconds t.jobs
    (if t.jobs = 1 then "" else "s");
  if t.sim_backend <> "interp" then
    Format.fprintf ppf "simulation backend: %s@," t.sim_backend;
  if t.parallel <> no_degraded then
    Format.fprintf ppf
      "degraded: %d serial fallback%s, %d failed fork%s, %d recomputed \
       slice%s@,"
      t.parallel.serial_fallbacks
      (if t.parallel.serial_fallbacks = 1 then "" else "s")
      t.parallel.failed_forks
      (if t.parallel.failed_forks = 1 then "" else "s")
      t.parallel.recomputed_slices
      (if t.parallel.recomputed_slices = 1 then "" else "s");
  Format.fprintf ppf "@]"

module J = Obs.Json

(* Units are stated explicitly because the pretty-printer shows uJ while
   the JSON carries pJ. *)
let json t =
  let entry e =
    J.Obj
      [ ("name", J.Str e.ename);
        ("wall_seconds", J.Num e.wall_seconds);
        ("cycles", J.int e.cycles);
        ("instructions", J.int e.instructions);
        ("icache_misses", J.int e.icache_misses);
        ("dcache_misses", J.int e.dcache_misses);
        ("stall_cycles", J.int e.stall_cycles);
        ("interlocks", J.int e.interlocks);
        ("energy_pj", J.Num e.energy_pj);
        ("simulations", J.int e.simulations) ]
  in
  J.Obj
    [ ( "units",
        J.Obj
          [ ("energy_pj", J.Str "picojoules");
            ("wall_seconds", J.Str "seconds");
            ("total_seconds", J.Str "seconds") ] );
      ("jobs", J.int t.jobs);
      ("sim_backend", J.Str t.sim_backend);
      ("total_seconds", J.Num t.total_seconds);
      ("total_simulations", J.int (total_simulations t));
      ("total_energy_pj", J.Num (total_energy_pj t));
      ( "parallel",
        J.Obj
          [ ("serial_fallbacks", J.int t.parallel.serial_fallbacks);
            ("failed_forks", J.int t.parallel.failed_forks);
            ("recomputed_slices", J.int t.parallel.recomputed_slices) ] );
      ("workloads", J.Arr (List.map entry t.entries)) ]

let to_json t = J.to_string (json t)

let of_json s =
  let j = Obs.Json.parse s in
  let mem k j = Obs.Json.member k j in
  let entry e =
    { ename = Obs.Json.to_str (mem "name" e);
      wall_seconds = Obs.Json.to_float (mem "wall_seconds" e);
      cycles = Obs.Json.to_int (mem "cycles" e);
      instructions = Obs.Json.to_int (mem "instructions" e);
      icache_misses = Obs.Json.to_int (mem "icache_misses" e);
      dcache_misses = Obs.Json.to_int (mem "dcache_misses" e);
      stall_cycles = Obs.Json.to_int (mem "stall_cycles" e);
      interlocks = Obs.Json.to_int (mem "interlocks" e);
      energy_pj = Obs.Json.to_float (mem "energy_pj" e);
      simulations = Obs.Json.to_int (mem "simulations" e) }
  in
  let p = mem "parallel" j in
  (* Reports written before the backend field existed were always produced
     by the interpreter, so its absence decodes to "interp". *)
  let sim_backend =
    match j with
    | Obs.Json.Obj fields -> (
      match List.assoc_opt "sim_backend" fields with
      | Some v -> Obs.Json.to_str v
      | None -> "interp")
    | _ -> "interp"
  in
  { entries = List.map entry (Obs.Json.to_list (mem "workloads" j));
    total_seconds = Obs.Json.to_float (mem "total_seconds" j);
    jobs = Obs.Json.to_int (mem "jobs" j);
    sim_backend;
    parallel =
      { serial_fallbacks = Obs.Json.to_int (mem "serial_fallbacks" p);
        failed_forks = Obs.Json.to_int (mem "failed_forks" p);
        recomputed_slices = Obs.Json.to_int (mem "recomputed_slices" p) } }

let save path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json t);
      Out_channel.output_char oc '\n')
