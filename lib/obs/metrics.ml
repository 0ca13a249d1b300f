let on = ref false
let set_enabled b = on := b
let enabled () = !on

type counter = {
  c_name : string;
  c_labels : (string * string) list;
  c_help : string;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  g_labels : (string * string) list;
  g_help : string;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  h_help : string;
  h_bounds : float array;        (* upper bounds, increasing; +inf implicit *)
  h_counts : int array;          (* length = bounds + 1 *)
  mutable h_sum : float;
  mutable h_count : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

(* Identity is (name, sorted labels); the registry keeps insertion order
   so reports are stable. *)
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []

(* Registration, multi-field histogram updates and snapshot reads are
   serialised so a snapshot never observes a torn bucket/sum/count
   triple while handler threads are observing.  Counter [inc] and gauge
   [set] stay lock-free: each is a single mutable-field store, and a
   snapshot reading a value one tick stale is harmless.  The mutex lives
   behind a ref so forked workers can replace it ([after_fork]) instead
   of inheriting one that another thread held at fork time. *)
let reg_lock = ref (Mutex.create ())

let after_fork () = reg_lock := Mutex.create ()

let locked f =
  let m = !reg_lock in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let key name labels =
  let labels = List.sort compare labels in
  String.concat "\x00"
    (name :: List.map (fun (k, v) -> k ^ "\x01" ^ v) labels)

let register k make =
  locked (fun () ->
      match Hashtbl.find_opt registry k with
      | Some i -> i
      | None ->
        let i = make () in
        Hashtbl.replace registry k i;
        order := k :: !order;
        i)

let counter ?(labels = []) ?(help = "") name =
  match
    register (key name labels) (fun () ->
        Counter { c_name = name; c_labels = labels; c_help = help; c_value = 0 })
  with
  | Counter c -> c
  | Gauge _ | Histogram _ ->
    invalid_arg (Printf.sprintf "Metrics.counter: %s registered as another type" name)

let inc ?(by = 1) c = if !on then c.c_value <- c.c_value + by
let counter_value c = c.c_value

let gauge ?(labels = []) ?(help = "") name =
  match
    register (key name labels) (fun () ->
        Gauge { g_name = name; g_labels = labels; g_help = help; g_value = 0.0 })
  with
  | Gauge g -> g
  | Counter _ | Histogram _ ->
    invalid_arg (Printf.sprintf "Metrics.gauge: %s registered as another type" name)

let set g v = if !on then g.g_value <- v
let gauge_value g = g.g_value

let default_buckets =
  [| 1e-4; 5e-4; 1e-3; 5e-3; 1e-2; 5e-2; 0.1; 0.5; 1.0; 5.0; 30.0 |]

let histogram ?(labels = []) ?(help = "") ?(buckets = default_buckets) name =
  match
    register (key name labels) (fun () ->
        Histogram
          { h_name = name;
            h_labels = labels;
            h_help = help;
            h_bounds = Array.copy buckets;
            h_counts = Array.make (Array.length buckets + 1) 0;
            h_sum = 0.0;
            h_count = 0 })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s registered as another type" name)

let observe h v =
  if !on then begin
    let n = Array.length h.h_bounds in
    let rec slot i = if i >= n || v <= h.h_bounds.(i) then i else slot (i + 1) in
    let s = slot 0 in
    let m = !reg_lock in
    Mutex.lock m;
    h.h_counts.(s) <- h.h_counts.(s) + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_count <- h.h_count + 1;
    Mutex.unlock m
  end

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum

(* --- fork cooperation ---------------------------------------------------- *)

type snap_value =
  | S_counter of int
  | S_gauge of float
  | S_histogram of float array * int array * float * int

type snapshot = (string * (string * string) list * string * snap_value) list

let instruments () =
  List.rev_map (fun k -> Hashtbl.find registry k) !order

let snapshot () : snapshot =
  locked (fun () ->
      List.map
        (function
          | Counter c -> (c.c_name, c.c_labels, c.c_help, S_counter c.c_value)
          | Gauge g -> (g.g_name, g.g_labels, g.g_help, S_gauge g.g_value)
          | Histogram h ->
            ( h.h_name,
              h.h_labels,
              h.h_help,
              S_histogram (Array.copy h.h_bounds, Array.copy h.h_counts, h.h_sum,
                           h.h_count) ))
        (instruments ()))

let merge (s : snapshot) =
  List.iter
    (fun (name, labels, help, v) ->
      match v with
      | S_counter n ->
        let c = counter ~labels ~help name in
        locked (fun () -> c.c_value <- c.c_value + n)
      | S_gauge x ->
        let g = gauge ~labels ~help name in
        locked (fun () -> g.g_value <- x)
      | S_histogram (bounds, counts, sum, count) ->
        let h = histogram ~labels ~help ~buckets:bounds name in
        locked (fun () ->
            if Array.length h.h_counts = Array.length counts then
              Array.iteri
                (fun i n -> h.h_counts.(i) <- h.h_counts.(i) + n)
                counts;
            h.h_sum <- h.h_sum +. sum;
            h.h_count <- h.h_count + count))
    s

let snapshot_diff (later : snapshot) (earlier : snapshot) : snapshot =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, labels, _, v) -> Hashtbl.replace tbl (key name labels) v)
    earlier;
  List.map
    (fun (name, labels, help, v) ->
      let v' =
        match (v, Hashtbl.find_opt tbl (key name labels)) with
        | v, None -> v
        | S_counter a, Some (S_counter b) -> S_counter (a - b)
        | S_gauge a, Some _ -> S_gauge a
        | S_histogram (bounds, counts, sum, count),
          Some (S_histogram (bounds0, counts0, sum0, count0))
          when bounds = bounds0 && Array.length counts = Array.length counts0
          ->
          S_histogram
            ( bounds,
              Array.mapi (fun i c -> c - counts0.(i)) counts,
              sum -. sum0,
              count - count0 )
        (* Type or shape skew between the captures: the earlier value is
           not comparable, keep the later one whole. *)
        | v, Some _ -> v
      in
      (name, labels, help, v'))
    later

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | Counter c -> c.c_value <- 0
          | Gauge g -> g.g_value <- 0.0
          | Histogram h ->
            Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
            h.h_sum <- 0.0;
            h.h_count <- 0)
        registry)

(* --- output -------------------------------------------------------------- *)

let instrument_json i =
  let obj name labels help typ fields =
    Json.Obj
      ([ ("name", Json.Str name);
         ("type", Json.Str typ);
         ("help", Json.Str help);
         ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels))
       ]
      @ fields)
  in
  match i with
  | Counter c ->
    obj c.c_name c.c_labels c.c_help "counter" [ ("value", Json.int c.c_value) ]
  | Gauge g ->
    obj g.g_name g.g_labels g.g_help "gauge" [ ("value", Json.Num g.g_value) ]
  | Histogram h ->
    let bucket le count = Json.Obj [ ("le", le); ("count", Json.int count) ] in
    let buckets =
      List.mapi (fun i le -> bucket (Json.Num le) h.h_counts.(i))
        (Array.to_list h.h_bounds)
      @ [ bucket (Json.Str "+inf") h.h_counts.(Array.length h.h_bounds) ]
    in
    obj h.h_name h.h_labels h.h_help "histogram"
      [ ("sum", Json.Num h.h_sum);
        ("count", Json.int h.h_count);
        ("buckets", Json.Arr buckets) ]

let to_json () =
  Json.to_string
    (Json.Obj
       [ ("metrics", Json.Arr (List.map instrument_json (instruments ()))) ])

let save path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json ());
      Out_channel.output_char oc '\n')

let pp ppf () =
  let label_str labels =
    if labels = [] then ""
    else
      Printf.sprintf "{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun i ->
      match i with
      | Counter c ->
        Format.fprintf ppf "%s%s %d@," c.c_name (label_str c.c_labels) c.c_value
      | Gauge g ->
        Format.fprintf ppf "%s%s %g@," g.g_name (label_str g.g_labels) g.g_value
      | Histogram h ->
        Format.fprintf ppf "%s%s count %d sum %g@," h.h_name
          (label_str h.h_labels) h.h_count h.h_sum)
    (instruments ());
  Format.fprintf ppf "@]"
