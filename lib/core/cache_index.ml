type meta = {
  m_key : string;
  m_name : string;
  m_size : int;
  m_last_used : float;
}

type t = (string, meta) Hashtbl.t

let index_basename = "index.json"

let index_path dir = Filename.concat dir index_basename

let file_of_key k = k ^ ".json"

let is_hex_digest s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let key_of_entry_file fname =
  if fname <> index_basename && Filename.check_suffix fname ".json" then begin
    let stem = Filename.chop_suffix fname ".json" in
    if is_hex_digest stem then Some stem else None
  end
  else None

let create () : t = Hashtbl.create 64

let record t m = Hashtbl.replace t m.m_key m

let remove t k = Hashtbl.remove t k

let find t k = Hashtbl.find_opt t k

let count t = Hashtbl.length t

let total_bytes t = Hashtbl.fold (fun _ m acc -> acc + m.m_size) t 0

(* Oldest first; ties break by key so plans are deterministic. *)
let entries t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t []
  |> List.sort (fun a b ->
         match compare a.m_last_used b.m_last_used with
         | 0 -> compare a.m_key b.m_key
         | c -> c)

(* --- On-disk document ----------------------------------------------------- *)

module J = Obs.Json

let to_json t =
  let entry m =
    J.Obj
      [ ("key", J.Str m.m_key);
        ("name", J.Str m.m_name);
        ("size", J.int m.m_size);
        ("last_used", J.Num m.m_last_used) ]
  in
  J.to_string
    (J.Obj
       [ ("format", J.Str "xenergy-cache-index");
         ("version", J.int 1);
         ("entries", J.Arr (List.map entry (entries t))) ])
  ^ "\n"

let load dir =
  match
    In_channel.with_open_text (index_path dir) In_channel.input_all
  with
  | exception Sys_error _ -> None
  | s -> (
    match
      let j = Obs.Json.parse s in
      if Obs.Json.(to_str (member "format" j)) <> "xenergy-cache-index"
      then failwith "index: bad format";
      if Obs.Json.(to_int (member "version" j)) <> 1 then
        failwith "index: unsupported version";
      let t = create () in
      List.iter
        (fun e ->
          let key = Obs.Json.(to_str (member "key" e)) in
          if not (is_hex_digest key) then failwith "index: bad key";
          record t
            { m_key = key;
              m_name = Obs.Json.(to_str (member "name" e));
              m_size = Obs.Json.(to_int (member "size" e));
              m_last_used = Obs.Json.(to_float (member "last_used" e)) })
        Obs.Json.(to_list (member "entries" j));
      t
    with
    | t -> Some t
    | exception _ -> None)

let stat_meta dir fname key =
  match Unix.stat (Filename.concat dir fname) with
  | st ->
    Some
      { m_key = key;
        m_name = "";
        m_size = st.Unix.st_size;
        m_last_used = st.Unix.st_mtime }
  | exception Unix.Unix_error _ -> None

let rebuild dir =
  let t = create () in
  (match Sys.readdir dir with
  | files ->
    Array.iter
      (fun fname ->
        match key_of_entry_file fname with
        | None -> ()
        | Some key -> Option.iter (record t) (stat_meta dir fname key))
      files
  | exception Sys_error _ -> ());
  t

let load_or_rebuild dir =
  match load dir with Some t -> (t, false) | None -> (rebuild dir, true)

let reconcile dir t =
  let on_disk = Hashtbl.create 64 in
  (match Sys.readdir dir with
  | files ->
    Array.iter
      (fun fname ->
        match key_of_entry_file fname with
        | None -> ()
        | Some key -> Hashtbl.replace on_disk key fname)
      files
  | exception Sys_error _ -> ());
  let added = ref 0 and dropped = ref 0 in
  (* Drop index entries whose file is gone. *)
  let stale =
    Hashtbl.fold
      (fun k _ acc -> if Hashtbl.mem on_disk k then acc else k :: acc)
      t []
  in
  List.iter (fun k -> remove t k; incr dropped) stale;
  (* Adopt unindexed files, and correct recorded sizes against reality
     (the last-used time is the index's own knowledge and survives). *)
  Hashtbl.iter
    (fun key fname ->
      match find t key with
      | None ->
        Option.iter (fun m -> record t m; incr added) (stat_meta dir fname key)
      | Some m -> (
        match stat_meta dir fname key with
        | Some fresh when fresh.m_size <> m.m_size ->
          record t { m with m_size = fresh.m_size }
        | Some _ | None -> ()))
    on_disk;
  (!added, !dropped)

let save dir t =
  let doc = to_json t in
  let tmp = Filename.temp_file ~temp_dir:dir "index" ".tmp" in
  try
    Out_channel.with_open_text tmp (fun oc ->
        Out_channel.output_string oc doc);
    (* Shared cache directories: the index must be readable by every
       cooperating user, not just the creator of the temp file. *)
    Unix.chmod tmp 0o644;
    Sys.rename tmp (index_path dir)
  with exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

let plan_eviction ~now ?max_entries ?max_bytes ?max_age_s t =
  let newest_first = List.rev (entries t) in
  let too_old m =
    match max_age_s with
    | None -> false
    | Some age -> now -. m.m_last_used > age
  in
  let _, _, evicted =
    List.fold_left
      (fun (kept, kept_bytes, evicted) m ->
        let over_count =
          match max_entries with Some n -> kept >= n | None -> false
        in
        let over_bytes =
          match max_bytes with
          | Some b -> kept_bytes + m.m_size > b
          | None -> false
        in
        if over_count || over_bytes || too_old m then
          (kept, kept_bytes, m :: evicted)
        else (kept + 1, kept_bytes + m.m_size, evicted))
      (0, 0, []) newest_first
  in
  (* Oldest first, matching [entries] order. *)
  evicted
