let characterization () = Characterization.suite ()

let applications () =
  [ Sorting.ins_sort ();
    Math_apps.gcd ();
    Graphics.alphablend ();
    Math_apps.add4 ();
    Sorting.bubsort ();
    Crypto.des ();
    Math_apps.accumulate ();
    Graphics.drawline ();
    Math_apps.multi_accumulate ();
    Math_apps.seq_mult () ]

let reed_solomon_choices () = Reed_solomon.choices ()

let c_applications () =
  List.map (fun (a : C_apps.capp) -> a.C_apps.case) (C_apps.all ())

(* The lookup table, built once per process on first use.  Building it
   assembles every program and compiles the Tiny-C applications from
   source (milliseconds), while a lookup is one hash probe.  Cases are
   immutable, so every caller can share them.  The build runs under a
   mutex rather than behind a bare [Lazy]: OCaml 5 raises
   [Lazy.Undefined] when two threads force the same value.  It is never
   forced eagerly, so processes that never look a workload up (the CLI's
   sweeps, a daemon before its first request) never pay for it, and a
   forked pool lane builds its own copy on its first lookup. *)
type table = {
  t_all : Core.Extract.case list;
  t_index : (string, Core.Extract.case) Hashtbl.t;
}

let build () =
  let all =
    characterization () @ applications () @ reed_solomon_choices ()
    @ c_applications ()
  in
  let index = Hashtbl.create 64 in
  (* First occurrence wins, as a scan of [all] would. *)
  List.iter
    (fun c ->
      let n = c.Core.Extract.case_name in
      if not (Hashtbl.mem index n) then Hashtbl.add index n c)
    all;
  { t_all = all; t_index = index }

let table_cell : table option Atomic.t = Atomic.make None
let table_lock = Mutex.create ()

let table () =
  match Atomic.get table_cell with
  | Some t -> t
  | None ->
    Mutex.protect table_lock (fun () ->
        match Atomic.get table_cell with
        | Some t -> t
        | None ->
          let t = build () in
          Atomic.set table_cell (Some t);
          t)

let all () = (table ()).t_all

let find name = Hashtbl.find (table ()).t_index name

let names () = List.map (fun c -> c.Core.Extract.case_name) (all ())
