type entry = {
  e_name : string;
  e_variables : float array;
  e_cycles : int;
  e_instructions : int;
  e_stall_cycles : int;
  e_measured_pj : float option;
}

type stats = { hits : int; misses : int; errors : int; stores : int }

type t = {
  c_dir : string option;
  c_mem : (string, entry) Hashtbl.t;
  mutable c_stats : stats;
  (* Index updates (stores and disk hits) accumulated since the last
     {!flush}; merged into the directory's index.json in one atomic
     rewrite instead of one per lookup. *)
  c_touched : (string, Cache_index.meta) Hashtbl.t;
  (* Inline size cap: when a store pushes the directory's estimated
     payload past [c_max_bytes], LRU eviction runs immediately instead
     of waiting for a manual prune.  [c_approx_bytes] is the running
     estimate (seeded from the index at the first capped store, then
     advanced per store); -1 = not yet seeded. *)
  c_max_bytes : int option;
  mutable c_approx_bytes : int;
}

module M = struct
  let hits = lazy (Obs.Metrics.counter "eval_cache_hits_total")
  let misses = lazy (Obs.Metrics.counter "eval_cache_misses_total")
  let errors = lazy (Obs.Metrics.counter "eval_cache_errors_total")
  let stores = lazy (Obs.Metrics.counter "eval_cache_stores_total")
  let evictions = lazy (Obs.Metrics.counter "eval_cache_evictions_total")
  let orphans = lazy (Obs.Metrics.counter "eval_cache_orphans_total")
  let index_rebuilds =
    lazy (Obs.Metrics.counter "eval_cache_index_rebuilds_total")
end

let create ?dir ?max_bytes () =
  { c_dir = dir; c_mem = Hashtbl.create 64;
    c_stats = { hits = 0; misses = 0; errors = 0; stores = 0 };
    c_touched = Hashtbl.create 16;
    c_max_bytes = max_bytes;
    c_approx_bytes = -1 }

let dir t = t.c_dir

let stats t = t.c_stats

let diff a b =
  { hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    errors = a.errors - b.errors;
    stores = a.stores - b.stores }

(* The key covers exactly what the cached computation reads: the
   assembled program (code words, entry point, initialised image — not
   the unassembled source, whose labels and symbol table carry no
   semantics), the extension specification, the processor configuration,
   the C(W) tag, whether the reference estimator observes the run, and
   the simulation backend that would produce the entry.  The backends
   are bit-identical by contract, but keying them apart means a cached
   vector never masks a divergence: an entry always records what the
   named backend actually computed.  Marshal gives a canonical byte
   string for these pure immutable values; MD5 of that is the content
   address. *)
let key ?backend ?(complexity_tag = "default") ?(with_reference = false)
    ~(config : Sim.Config.t) (c : Extract.case) =
  let backend =
    match backend with
    | Some b -> b
    | None -> Sim.Backend.name (Sim.Backend.current ())
  in
  let asm = c.Extract.asm in
  let code =
    Array.map
      (fun (s : Isa.Program.slot) -> (s.Isa.Program.addr, s.Isa.Program.word))
      asm.Isa.Program.code
  in
  let spec = Option.map Tie.Compile.spec c.Extract.extension in
  let payload =
    ( "xenergy-eval-cache", 2, backend, complexity_tag, with_reference, code,
      asm.Isa.Program.entry, asm.Isa.Program.image, spec, config )
  in
  Digest.to_hex (Digest.string (Marshal.to_string payload []))

(* --- On-disk format ------------------------------------------------------ *)

(* %.17g prints enough digits that float_of_string recovers the exact
   bits: a warm (disk) sweep is bit-identical to the cold one.  Non-
   finite values have no JSON representation and would turn into a
   permanent parse error on every warm read — refuse them here, so a
   bad value fails fast at store time (error-counted) instead of
   poisoning the entry on disk. *)
let float17 x =
  if not (Float.is_finite x) then failwith "cache: non-finite value";
  Printf.sprintf "%.17g" x

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let entry_to_json ~key:k e =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"format\": \"xenergy-eval-cache\",\n";
  Buffer.add_string b "  \"version\": 1,\n";
  Printf.bprintf b "  \"key\": \"%s\",\n" k;
  Printf.bprintf b "  \"name\": \"%s\",\n" (json_escape e.e_name);
  Printf.bprintf b "  \"cycles\": %d,\n" e.e_cycles;
  Printf.bprintf b "  \"instructions\": %d,\n" e.e_instructions;
  Printf.bprintf b "  \"stall_cycles\": %d,\n" e.e_stall_cycles;
  Printf.bprintf b "  \"measured_pj\": %s,\n"
    (match e.e_measured_pj with None -> "null" | Some x -> float17 x);
  Printf.bprintf b "  \"variables\": [%s]\n"
    (String.concat ", "
       (Array.to_list (Array.map float17 e.e_variables)));
  Buffer.add_string b "}\n";
  Buffer.contents b

let entry_of_json ~expect_key s =
  let j = Obs.Json.parse s in
  let str f = Obs.Json.(to_string (member f j)) in
  let int f = Obs.Json.(to_int (member f j)) in
  if str "format" <> "xenergy-eval-cache" then failwith "cache: bad format";
  if int "version" <> 1 then failwith "cache: unsupported version";
  if str "key" <> expect_key then failwith "cache: key mismatch";
  let variables =
    Obs.Json.(to_list (member "variables" j))
    |> List.map Obs.Json.to_float |> Array.of_list
  in
  if Array.length variables <> Variables.count then
    failwith "cache: wrong variable count";
  let measured_pj =
    match Obs.Json.member "measured_pj" j with
    | Obs.Json.Null -> None
    | v -> Some (Obs.Json.to_float v)
  in
  { e_name = str "name";
    e_variables = variables;
    e_cycles = int "cycles";
    e_instructions = int "instructions";
    e_stall_cycles = int "stall_cycles";
    e_measured_pj = measured_pj }

(* --- Lookup / store ------------------------------------------------------ *)

let path_of t k =
  Option.map (fun d -> Filename.concat d (Cache_index.file_of_key k)) t.c_dir

let count_error t =
  t.c_stats <- { t.c_stats with errors = t.c_stats.errors + 1 };
  Obs.Metrics.inc (Lazy.force M.errors);
  Obs.Trace.instant ~cat:"cache" "cache:error"

let touch t k (e : entry) ~size =
  if t.c_dir <> None then
    Hashtbl.replace t.c_touched k
      { Cache_index.m_key = k;
        m_name = e.e_name;
        m_size = size;
        m_last_used = Unix.gettimeofday () }

let load_disk t k =
  match path_of t k with
  | None -> None
  | Some path ->
    if not (Sys.file_exists path) then None
    else begin
      match
        let s = In_channel.with_open_text path In_channel.input_all in
        (entry_of_json ~expect_key:k s, String.length s)
      with
      | e, size ->
        touch t k e ~size;
        Some e
      | exception _ ->
        (* Corrupted, truncated or foreign file: recompute rather than
           fail, and leave a trail in the error counter. *)
        count_error t;
        None
    end

let find t k =
  let hit ~layer e =
    t.c_stats <- { t.c_stats with hits = t.c_stats.hits + 1 };
    Obs.Metrics.inc (Lazy.force M.hits);
    (* A hit is the daemon's warm path: build no event fields unless
       something records them. *)
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~cat:"cache" "cache:hit"
        ~args:[ ("name", Obs.Trace.S e.e_name) ];
    if Obs.Log.enabled () then
      Obs.Log.event ~level:Obs.Log.Debug "cache:hit"
        [ ("key", Obs.Trace.S k); ("name", Obs.Trace.S e.e_name);
          ("layer", Obs.Trace.S layer) ];
    Some e
  in
  match Hashtbl.find_opt t.c_mem k with
  | Some e -> hit ~layer:"memory" e
  | None -> (
    match load_disk t k with
    | Some e ->
      Hashtbl.replace t.c_mem k e;
      hit ~layer:"disk" e
    | None ->
      t.c_stats <- { t.c_stats with misses = t.c_stats.misses + 1 };
      Obs.Metrics.inc (Lazy.force M.misses);
      Obs.Log.event ~level:Obs.Log.Debug "cache:miss"
        [ ("key", Obs.Trace.S k) ];
      None)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ()
  end

(* Returns the published entry's size in bytes, [None] when the cache
   has no directory or the write failed (error-counted). *)
let store_disk t k e =
  match path_of t k with
  | None -> None
  | Some path -> (
    (* Atomic publication: never leave a torn file for a concurrent or
       later reader to trip over. *)
    try
      (* Serialize before creating the temp file: a non-finite value
         aborts the store without touching the directory. *)
      let doc = entry_to_json ~key:k e in
      Option.iter mkdir_p t.c_dir;
      let tmp =
        Filename.temp_file ~temp_dir:(Option.get t.c_dir) "cache" ".tmp"
      in
      (try
         Out_channel.with_open_text tmp (fun oc ->
             Out_channel.output_string oc doc);
         (* temp_file creates 0o600 and rename preserves it, which
            would make a shared cache directory unreadable to other
            users; publish world-readable. *)
         Unix.chmod tmp 0o644;
         Sys.rename tmp path
       with exn ->
         (* Never leak the temp file on a failed write. *)
         (try Sys.remove tmp with Sys_error _ | Unix.Unix_error _ -> ());
         raise exn);
      touch t k e ~size:(String.length doc);
      Some (String.length doc)
    with Sys_error _ | Unix.Unix_error _ | Invalid_argument _ | Failure _ ->
      count_error t;
      None)

(* --- Index maintenance ---------------------------------------------------- *)

let count_index_rebuild () =
  Obs.Metrics.inc (Lazy.force M.index_rebuilds);
  Obs.Trace.instant ~cat:"cache" "cache:index-rebuild"

let flush t =
  match t.c_dir with
  | None -> ()
  | Some d ->
    if Hashtbl.length t.c_touched > 0 && Sys.file_exists d then begin
      try
        let idx, rebuilt = Cache_index.load_or_rebuild d in
        if rebuilt then count_index_rebuild ();
        Hashtbl.iter (fun _ m -> Cache_index.record idx m) t.c_touched;
        Cache_index.save d idx;
        Hashtbl.reset t.c_touched
      with Sys_error _ | Unix.Unix_error _ -> count_error t
    end

(* --- Lifecycle management over a directory -------------------------------- *)

type policy = {
  max_entries : int option;
  max_bytes : int option;
  max_age_s : float option;
}

let unlimited = { max_entries = None; max_bytes = None; max_age_s = None }

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_oldest : float option;
  d_newest : float option;
  d_index_rebuilt : bool;
}

(* Load-or-rebuild plus reconcile: the index is advisory, the files are
   the truth, so every lifecycle operation re-syncs before acting. *)
let synced_index dir =
  let idx, rebuilt = Cache_index.load_or_rebuild dir in
  if rebuilt then count_index_rebuild ()
  else ignore (Cache_index.reconcile dir idx);
  (idx, rebuilt)

let disk_stats dirname =
  let idx, rebuilt = synced_index dirname in
  let ms = Cache_index.entries idx in
  { d_entries = Cache_index.count idx;
    d_bytes = Cache_index.total_bytes idx;
    d_oldest =
      (match ms with [] -> None | m :: _ -> Some m.Cache_index.m_last_used);
    d_newest =
      (match List.rev ms with
      | [] -> None
      | m :: _ -> Some m.Cache_index.m_last_used);
    d_index_rebuilt = rebuilt }

type prune_report = {
  p_kept : int;
  p_kept_bytes : int;
  p_evicted : int;
  p_evicted_bytes : int;
  p_index_rebuilt : bool;
}

let prune ?now ~policy dirname =
  let now =
    match now with Some n -> n | None -> Unix.gettimeofday ()
  in
  let idx, rebuilt = synced_index dirname in
  let victims =
    Cache_index.plan_eviction ~now ?max_entries:policy.max_entries
      ?max_bytes:policy.max_bytes ?max_age_s:policy.max_age_s idx
  in
  let evicted_bytes = ref 0 in
  List.iter
    (fun (m : Cache_index.meta) ->
      (* Entries are immutable and recomputable, so deletion is always
         safe; a file already gone is not an error. *)
      (try
         Sys.remove
           (Filename.concat dirname (Cache_index.file_of_key m.Cache_index.m_key))
       with Sys_error _ -> ());
      Cache_index.remove idx m.Cache_index.m_key;
      evicted_bytes := !evicted_bytes + m.Cache_index.m_size;
      Obs.Metrics.inc (Lazy.force M.evictions);
      Obs.Trace.instant ~cat:"cache" "cache:evict"
        ~args:[ ("key", Obs.Trace.S m.Cache_index.m_key) ];
      Obs.Log.event "cache:evict"
        [ ("key", Obs.Trace.S m.Cache_index.m_key);
          ("name", Obs.Trace.S m.Cache_index.m_name);
          ("bytes", Obs.Trace.I m.Cache_index.m_size) ])
    victims;
  (try Cache_index.save dirname idx with Sys_error _ | Unix.Unix_error _ -> ());
  { p_kept = Cache_index.count idx;
    p_kept_bytes = Cache_index.total_bytes idx;
    p_evicted = List.length victims;
    p_evicted_bytes = !evicted_bytes;
    p_index_rebuilt = rebuilt }

(* --- Store (with the inline size cap) ------------------------------------- *)

(* When the cache was created with [max_bytes], a store that pushes the
   directory's estimated payload past the bound triggers LRU eviction on
   the spot.  The estimate is seeded from the index once (first capped
   store) and advanced per store, so the steady-state cost is one
   comparison; an actual enforcement pass re-syncs the index, evicts and
   re-seeds the estimate from the authoritative result. *)
let enforce_cap t =
  match (t.c_dir, t.c_max_bytes) with
  | Some d, Some mb when t.c_approx_bytes > mb && Sys.file_exists d ->
    (* Publish this instance's pending last-used times first, so the
       LRU order sees the current sweep's entries as fresh and evicts
       genuinely cold ones. *)
    flush t;
    let r = prune ~policy:{ unlimited with max_bytes = Some mb } d in
    t.c_approx_bytes <- r.p_kept_bytes;
    Obs.Log.event "cache:cap-enforced"
      [ ("max_bytes", Obs.Trace.I mb);
        ("evicted", Obs.Trace.I r.p_evicted);
        ("evicted_bytes", Obs.Trace.I r.p_evicted_bytes);
        ("kept_bytes", Obs.Trace.I r.p_kept_bytes) ]
  | _ -> ()

let store t k e =
  Hashtbl.replace t.c_mem k e;
  (match store_disk t k e with
  | None -> ()
  | Some size ->
    if t.c_max_bytes <> None then begin
      if t.c_approx_bytes < 0 then
        (* First capped store: seed the estimate from the index (the
           entry just stored is already on disk and indexed-or-adopted
           by the re-sync below on enforcement). *)
        t.c_approx_bytes <-
          (match t.c_dir with
          | Some d ->
            let idx, rebuilt = Cache_index.load_or_rebuild d in
            if rebuilt then count_index_rebuild ();
            ignore (Cache_index.reconcile d idx);
            Cache_index.total_bytes idx
          | None -> size)
      else t.c_approx_bytes <- t.c_approx_bytes + size;
      enforce_cap t
    end);
  t.c_stats <- { t.c_stats with stores = t.c_stats.stores + 1 };
  Obs.Metrics.inc (Lazy.force M.stores)

type verify_report = {
  v_ok : int;
  v_corrupt : (string * string) list;
  v_foreign : string list;
  v_tmp : string list;
}

let list_dir dirname =
  match Sys.readdir dirname with
  | files -> Array.to_list files |> List.sort compare
  | exception Sys_error _ -> []

let verify dirname =
  let ok = ref 0 and corrupt = ref [] and foreign = ref [] and tmp = ref [] in
  List.iter
    (fun fname ->
      let path = Filename.concat dirname fname in
      if fname = Cache_index.index_basename then ()
      else if try Sys.is_directory path with Sys_error _ -> false then
        foreign := fname :: !foreign
      else if Filename.check_suffix fname ".tmp" then tmp := fname :: !tmp
      else
        match Cache_index.key_of_entry_file fname with
        | None -> foreign := fname :: !foreign
        | Some k -> (
          match
            entry_of_json ~expect_key:k
              (In_channel.with_open_text path In_channel.input_all)
          with
          | _ -> incr ok
          | exception Failure msg -> corrupt := (fname, msg) :: !corrupt
          | exception Obs.Json.Parse_error msg ->
            corrupt := (fname, msg) :: !corrupt
          | exception Sys_error msg -> corrupt := (fname, msg) :: !corrupt))
    (list_dir dirname);
  { v_ok = !ok;
    v_corrupt = List.rev !corrupt;
    v_foreign = List.rev !foreign;
    v_tmp = List.rev !tmp }

type gc_report = {
  g_tmp_removed : int;
  g_foreign_removed : int;
  g_index_added : int;
  g_index_dropped : int;
}

let gc dirname =
  let tmp = ref 0 and foreign = ref 0 in
  List.iter
    (fun fname ->
      let path = Filename.concat dirname fname in
      if fname = Cache_index.index_basename then ()
      else if try Sys.is_directory path with Sys_error _ -> false then ()
      else if Cache_index.key_of_entry_file fname <> None then ()
      else begin
        (* An orphaned temp file (from a writer that died between
           temp_file and rename) or a file that can never be indexed:
           sweep it. *)
        let counter =
          if Filename.check_suffix fname ".tmp" then tmp else foreign
        in
        try
          Sys.remove path;
          incr counter;
          Obs.Metrics.inc (Lazy.force M.orphans);
          Obs.Trace.instant ~cat:"cache" "cache:gc"
            ~args:[ ("file", Obs.Trace.S fname) ]
        with Sys_error _ -> ()
      end)
    (list_dir dirname);
  let idx, rebuilt = Cache_index.load_or_rebuild dirname in
  if rebuilt then count_index_rebuild ();
  let added, dropped =
    if rebuilt then (0, 0) else Cache_index.reconcile dirname idx
  in
  (try Cache_index.save dirname idx with Sys_error _ | Unix.Unix_error _ -> ());
  { g_tmp_removed = !tmp;
    g_foreign_removed = !foreign;
    g_index_added = added;
    g_index_dropped = dropped }
