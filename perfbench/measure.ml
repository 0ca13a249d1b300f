(* Order statistics and the repetition loop behind every layer timing. *)

let now = Unix.gettimeofday

(* Nearest-rank quantile, [q] in [0, 1]. *)
let quantile q xs =
  match xs with
  | [] -> invalid_arg "quantile: no samples"
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Wall time of one call of [f], in seconds. *)
let time f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

(* Per-call time of [f] in seconds: [f] is batched until one batch takes
   at least [min_batch_s], and the median over [reps] batches is
   reported, so a single scheduler hiccup does not move the figure. *)
let per_call ?(min_batch_s = 0.01) ?(reps = 7) f =
  let batch n =
    let t0 = now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (now () -. t0) /. float_of_int n
  in
  let rec calibrate n =
    let t0 = now () in
    ignore (batch n);
    if now () -. t0 >= min_batch_s || n >= 1 lsl 20 then n else calibrate (n * 2)
  in
  let n = calibrate 1 in
  median (List.init reps (fun _ -> batch n))

(* Per-item time of one pass of [f] over [items], median over [reps]
   passes. *)
let per_item ?(reps = 5) f items =
  let k = float_of_int (List.length items) in
  median
    (List.init reps (fun _ -> time (fun () -> List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items) /. k))
