type t = {
  bucket_cycles : int;
  mutable data : float array;
  mutable used : int;       (* buckets touched: highest index + 1 *)
}

let create ?(bucket_cycles = 64) () =
  if bucket_cycles <= 0 then invalid_arg "Waveform.create: bucket_cycles <= 0";
  { bucket_cycles; data = Array.make 16 0.0; used = 0 }

let bucket_cycles t = t.bucket_cycles

let add t ~cycle ~energy_pj =
  let i = max 0 cycle / t.bucket_cycles in
  if i >= Array.length t.data then begin
    let data = Array.make (max (i + 1) (2 * Array.length t.data)) 0.0 in
    Array.blit t.data 0 data 0 (Array.length t.data);
    t.data <- data
  end;
  t.data.(i) <- t.data.(i) +. energy_pj;
  if i + 1 > t.used then t.used <- i + 1

let buckets t =
  Array.init t.used (fun i -> (i * t.bucket_cycles, t.data.(i)))

let total_pj t =
  let acc = ref 0.0 in
  for i = 0 to t.used - 1 do
    acc := !acc +. t.data.(i)
  done;
  !acc

let reset t =
  Array.fill t.data 0 (Array.length t.data) 0.0;
  t.used <- 0

let json t =
  Json.Obj
    [ ("bucket_cycles", Json.int t.bucket_cycles);
      ("unit", Json.Str "pJ");
      ( "buckets",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun (c, e) ->
                  Json.Obj
                    [ ("cycle", Json.int c);
                      ("energy_pj", Json.Num e) ])
                (buckets t))) ) ]

let to_json t = Json.to_string (json t)

let pp ppf t =
  let bs = buckets t in
  let n = Array.length bs in
  if n = 0 then Format.fprintf ppf "(empty waveform)"
  else begin
    (* Downsample to at most 48 rows by merging adjacent buckets. *)
    let rows = min n 48 in
    let group = (n + rows - 1) / rows in
    let merged =
      Array.init ((n + group - 1) / group) (fun r ->
          let lo = r * group in
          let hi = min n (lo + group) in
          let e = ref 0.0 in
          for i = lo to hi - 1 do
            e := !e +. snd bs.(i)
          done;
          (fst bs.(lo), !e, (hi - lo) * t.bucket_cycles))
    in
    let peak =
      Array.fold_left (fun a (_, e, w) -> Float.max a (e /. float_of_int w))
        0.0 merged
    in
    Format.fprintf ppf "@[<v>%10s %12s  power (pJ/cycle)@," "cycle"
      "pJ/cycle";
    Array.iter
      (fun (c, e, w) ->
        let p = e /. float_of_int w in
        let bar =
          if peak <= 0.0 then 0
          else int_of_float (Float.round (40.0 *. p /. peak))
        in
        Format.fprintf ppf "%10d %12.1f  %s@," c p (String.make bar '#'))
      merged;
    Format.fprintf ppf "@]"
  end
