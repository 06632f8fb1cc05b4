module Json = Autonet_telemetry.Json

(* --- Percentiles --- *)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "percentile: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "percentile: p outside (0, 100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(Stdlib.max 1 rank - 1)

type summary = { n : int; p50 : float; p90 : float }

let summarize xs =
  { n = Array.length xs; p50 = percentile xs 50.; p90 = percentile xs 90. }

let pp_summary ~unit ppf s =
  Format.fprintf ppf "p50 %.3f %s, p90 %.3f %s (n=%d)" s.p50 unit s.p90 unit s.n

(* --- Ratios --- *)

type ratio = { num : float; den : float }

let ratio_value r = if r.den = 0. then 0. else r.num /. r.den

let pp_ratio ppf r =
  if r.den = 0. then Format.fprintf ppf "n/a (%g/0)" r.num
  else Format.fprintf ppf "%.4f (%g/%g)" (ratio_value r) r.num r.den

(* --- Spans --- *)

type span = { id : int; name : string; start : float; stop : float; parent : int }

type recorder = {
  clock : unit -> float;
  mutable next_id : int;
  mutable open_ : int list;  (* innermost first *)
  mutable closed : span list;  (* newest first *)
}

let recorder ?(clock = Unix.gettimeofday) () =
  { clock; next_id = 0; open_ = []; closed = [] }

let with_span r name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.open_ with p :: _ -> p | [] -> -1 in
  r.open_ <- id :: r.open_;
  let start = r.clock () in
  let finish () =
    let stop = r.clock () in
    r.open_ <- List.tl r.open_;
    r.closed <- { id; name; start; stop; parent } :: r.closed
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans r = List.sort (fun a b -> Int.compare a.id b.id) r.closed
let clear r = r.closed <- []

let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s.id, s.stop -. s.start -. kids))
    spans

let self_by_name spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s.name) spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (id, self) ->
      let name = Hashtbl.find by_id id in
      let t, c = Option.value ~default:(0., 0) (Hashtbl.find_opt acc name) in
      Hashtbl.replace acc name (t +. self, c + 1))
    (self_times spans);
  Hashtbl.fold (fun name (t, c) l -> (name, t, c) :: l) acc []
  |> List.sort (fun (n1, t1, _) (n2, t2, _) ->
         match Float.compare t2 t1 with 0 -> String.compare n1 n2 | c -> c)

let to_chrome_trace spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us x = Json.Float ((x -. t0) *. 1e6) in
  Json.Obj
    [ ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("name", Json.String s.name);
                   ("ph", Json.String "X");
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ("ts", us s.start);
                   ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
                   ( "args",
                     Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ] ) ])
             spans) );
      ("displayTimeUnit", Json.String "ms") ]

(* --- Results --- *)

type metric = { m_name : string; m_unit : string; m_value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_to_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.m_name,
                 Json.Obj
                   [ ("value", Json.Float m.m_value); ("unit", Json.String m.m_unit) ] ))
             r.metrics) ) ]

let result_of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error ("missing or malformed field " ^ name)
  in
  let* correct = field "correct" (function Json.Bool b -> Some b | _ -> None) in
  let* attempted = field "attempted" Json.to_int in
  let* failed = field "failed" Json.to_int in
  let* metrics = field "metrics" (function Json.Obj kvs -> Some kvs | _ -> None) in
  let* metrics =
    List.fold_right
      (fun (m_name, v) acc ->
        let* acc = acc in
        match
          ( Option.bind (Json.member "value" v) Json.to_float,
            Option.bind (Json.member "unit" v) Json.to_str )
        with
        | Some m_value, Some m_unit -> Ok ({ m_name; m_unit; m_value } :: acc)
        | _ -> Error ("malformed metric " ^ m_name))
      metrics (Ok [])
  in
  Ok { correct; attempted; failed; metrics }
