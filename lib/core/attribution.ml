type row = {
  variable : Variables.id;
  count : float;
  coefficient_pj : float;
  energy_pj : float;
  share : float;
}

type breakdown = {
  workload : string;
  total_pj : float;
  rows : row list;
  waveform : Obs.Waveform.t;
  cycles : int;
  instructions : int;
}

type t = {
  model : Template.model;
  stats : Sim.Stats.t;
  res : Resource.t;
  waveform : Obs.Waveform.t;
  scratch : float array;   (** reused per event — never escapes observe *)
  prev_vars : float array; (** variable vector as of the previous event *)
  dcell : float array;
  (** [0] = marginal scratch, [1] = running total; float-array storage
      keeps the per-event fold free of boxed-float allocation (a
      mutable float field in a mixed record would box each store) *)
  diff_len : int;
  (** entries worth diffing per event: the category tail is frozen at
      zero when the run has no extension ({!Resource.inert}) *)
}

let create ?bucket_cycles ?complexity ?extension ~config model =
  let res = Resource.create ?complexity extension in
  { model;
    stats = Sim.Stats.create config;
    res;
    waveform = Obs.Waveform.create ?bucket_cycles ();
    scratch = Array.make Variables.count 0.0;
    prev_vars = Array.make Variables.count 0.0;
    dcell = Array.make 2 0.0;
    diff_len =
      (if Resource.inert res then Variables.base_count
       else Variables.count) }

(* Each event advances the two built-in accumulators; the marginal model
   energy (new total minus old) is that instruction's bin contribution.
   Telescoping guarantees the waveform sums to the final model energy,
   so both decompositions close over the same total.

   The model is linear, so the marginal only involves the variables the
   event moved (a handful of the vector): folding coefficient * delta
   over changed entries gives the same telescoping sum at a fraction of
   the per-event cost of the full dot product, which is what keeps an
   attached profiler within its overhead budget.  Accumulation order
   differs from a fresh dot product, so the closing total agrees with
   {!Template.energy} to rounding (well under the 1e-6 conservation
   tolerance), not bit-for-bit. *)
let observe_marginal t (e : Sim.Event.t) =
  Sim.Stats.observe t.stats e;
  Resource.observe t.res e;
  Extract.fill_variables t.stats t.res t.scratch;
  let coeffs = t.model.Template.coefficients in
  t.dcell.(0) <- 0.0;
  for i = 0 to t.diff_len - 1 do
    let nv = t.scratch.(i) in
    if nv <> t.prev_vars.(i) then begin
      t.dcell.(0) <- t.dcell.(0) +. (coeffs.(i) *. (nv -. t.prev_vars.(i)));
      t.prev_vars.(i) <- nv
    end
  done;
  let delta = t.dcell.(0) in
  Obs.Waveform.add t.waveform ~cycle:e.Sim.Event.start_cycle
    ~energy_pj:delta;
  t.dcell.(1) <- t.dcell.(1) +. delta;
  delta

let observe t e = ignore (observe_marginal t e : float)

let observer t : Sim.Cpu.observer = fun e -> observe t e

let energy_so_far t = t.dcell.(1)

(* The model is linear, so the decomposition needs nothing beyond the
   variable vector — in particular no simulation: Explore uses this to
   explain frontier candidates straight from cached vectors. *)
let decompose model vars =
  let total = Template.energy model vars in
  List.map
    (fun id ->
      let i = Variables.index id in
      let c = Template.coefficient model id in
      let energy = c *. vars.(i) in
      { variable = id;
        count = vars.(i);
        coefficient_pj = c;
        energy_pj = energy;
        share = (if Float.abs total < 1e-12 then 0.0 else energy /. total) })
    Variables.all
  |> List.sort (fun a b -> Float.compare b.energy_pj a.energy_pj)

let finish t ~name ~cycles ~instructions =
  let vars = Extract.variables_of_stats t.stats t.res in
  let total = Template.energy t.model vars in
  let rows = decompose t.model vars in
  { workload = name;
    total_pj = total;
    rows;
    waveform = t.waveform;
    cycles;
    instructions }

let run ?(config = Sim.Config.default) ?bucket_cycles ?complexity
    ?(observers = []) model (c : Extract.case) =
  Obs.Trace.with_span ~cat:"attribute" ("attribute:" ^ c.Extract.case_name)
  @@ fun () ->
  let t =
    create ?bucket_cycles ?complexity ?extension:c.Extract.extension ~config
      model
  in
  let cpu, _outcome =
    Sim.Backend.run_program ~config ?extension:c.Extract.extension
      ~observers:(observer t :: observers)
      c.Extract.asm
  in
  finish t ~name:c.Extract.case_name ~cycles:(Sim.Cpu.cycles cpu)
    ~instructions:(Sim.Cpu.instructions cpu)

let check_sum b =
  let sum = List.fold_left (fun acc r -> acc +. r.energy_pj) 0.0 b.rows in
  Float.abs (sum -. b.total_pj) /. Float.max (Float.abs b.total_pj) 1.0

let pp ppf b =
  Format.fprintf ppf
    "@[<v>%s: %d instructions, %d cycles, %.3f uJ estimated@,@,"
    b.workload b.instructions b.cycles (b.total_pj /. 1.0e6);
  Format.fprintf ppf "%-12s %-38s %12s %12s %10s %7s@," "variable"
    "description" "count" "coeff (pJ)" "energy uJ" "share";
  List.iter
    (fun r ->
      if r.count <> 0.0 then
        Format.fprintf ppf "%-12s %-38s %12.1f %12.1f %10.3f %6.1f%%@,"
          (Variables.name r.variable)
          (Variables.describe r.variable)
          r.count r.coefficient_pj
          (r.energy_pj /. 1.0e6)
          (100.0 *. r.share))
    b.rows;
  Format.fprintf ppf "@,power over time (bucket = %d cycles):@,%a@]"
    (Obs.Waveform.bucket_cycles b.waveform)
    Obs.Waveform.pp b.waveform

module J = Obs.Json

let json b =
  let row_json r =
    J.Obj
      [ ("variable", J.Str (Variables.name r.variable));
        ("description", J.Str (Variables.describe r.variable));
        ("count", J.Num r.count);
        ("coefficient_pj", J.Num r.coefficient_pj);
        ("energy_pj", J.Num r.energy_pj);
        ("share", J.Num r.share) ]
  in
  J.Obj
    [ ("workload", J.Str b.workload);
      ("units", J.Obj [ ("energy_pj", J.Str "picojoules") ]);
      ("total_energy_pj", J.Num b.total_pj);
      ("cycles", J.int b.cycles);
      ("instructions", J.int b.instructions);
      ("variables", J.Arr (List.map row_json b.rows));
      ("waveform", Obs.Waveform.json b.waveform) ]

let to_json b = J.to_string (json b)
