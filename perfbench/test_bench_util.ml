(* Unit tests of the benchmark's own helpers. *)

module U = Bench_util
module Json = Autonet_telemetry.Json

let feq = Alcotest.float 1e-12

let test_percentile () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check feq "p50 of 5 is the 3rd" 3. (U.percentile xs 50.);
  Alcotest.check feq "p90 of 5 is the max" 5. (U.percentile xs 90.);
  Alcotest.check feq "p20 of 5 is the 1st" 1. (U.percentile xs 20.);
  Alcotest.check feq "p100 is the max" 5. (U.percentile xs 100.);
  Alcotest.check feq "p50 of 1 sample" 7. (U.percentile [| 7. |] 50.);
  Alcotest.check feq "p50 of 2 is the smaller" 1. (U.percentile [| 2.; 1. |] 50.);
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p90 of 10 is the 9th" 9. (U.percentile ten 90.);
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p90 of 100 is the 90th" 90. (U.percentile hundred 90.);
  let s = U.summarize xs in
  Alcotest.(check int) "summary keeps the sample count" 5 s.U.n;
  Alcotest.(check string) "summary prints n"
    "p50 3.000 ms, p90 5.000 ms (n=5)"
    (Format.asprintf "%a" (U.pp_summary ~unit:"ms") s);
  Alcotest.check_raises "empty" (Invalid_argument "percentile: no samples") (fun () ->
      ignore (U.percentile [||] 50.));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "percentile: p outside (0, 100]") (fun () ->
      ignore (U.percentile xs 0.))

let test_ratio () =
  let r = { U.num = 2.; den = 4. } in
  Alcotest.check feq "value" 0.5 (U.ratio_value r);
  Alcotest.(check string) "printed with its base" "0.5000 (2/4)"
    (Format.asprintf "%a" U.pp_ratio r);
  let z = { U.num = 0.; den = 0. } in
  Alcotest.check feq "zero base reads 0" 0. (U.ratio_value z);
  Alcotest.(check string) "zero base says so" "n/a (0/0)" (Format.asprintf "%a" U.pp_ratio z)

(* A clock that advances one second per reading makes every duration a
   count of the clock reads inside it. *)
let test_self_time () =
  let t = ref 0. in
  let clock () =
    t := !t +. 1.;
    !t
  in
  let r = U.recorder ~clock () in
  U.with_span r "op" (fun () ->
      U.with_span r "engine.run" (fun () -> ignore (clock ()));
      U.with_span r "network.converged" (fun () ->
          U.with_span r "inner" (fun () -> ()));
      ignore (clock ()));
  let spans = U.spans r in
  Alcotest.(check (list string)) "opening order"
    [ "op"; "engine.run"; "network.converged"; "inner" ]
    (List.map (fun s -> s.U.name) spans);
  let parent name = (List.find (fun s -> s.U.name = name) spans).U.parent in
  Alcotest.(check int) "root has no parent" (-1) (parent "op");
  Alcotest.(check int) "child parented to op" 0 (parent "engine.run");
  Alcotest.(check int) "grandchild parented to its span" 2 (parent "inner");
  (* op: 1..10 = 9; engine.run: 2..4 = 2; converged: 5..8 = 3; inner: 6..7 = 1 *)
  let self name =
    let id = (List.find (fun s -> s.U.name = name) spans).U.id in
    List.assoc id (U.self_times spans)
  in
  Alcotest.check feq "op self = 9 - 2 - 3" 4. (self "op");
  Alcotest.check feq "converged self = 3 - 1" 2. (self "network.converged");
  Alcotest.check feq "leaf self = duration" 2. (self "engine.run");
  let by_name = U.self_by_name spans in
  Alcotest.(check (list string)) "ordered by self time"
    [ "op"; "engine.run"; "network.converged"; "inner" ]
    (List.map (fun (n, _, _) -> n) by_name);
  (* A raising thunk still closes its span. *)
  (try U.with_span r "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "closed on raise" true
    (List.exists (fun s -> s.U.name = "boom" && s.U.parent = -1) (U.spans r));
  U.clear r;
  Alcotest.(check int) "clear forgets" 0 (List.length (U.spans r));
  match Json.parse (Json.to_string (U.to_chrome_trace spans)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let evs = Option.fold ~none:[] ~some:Json.to_list (Json.member "traceEvents" j) in
    Alcotest.(check int) "one event per span" 4 (List.length evs)

let test_result_round_trip () =
  let r =
    { U.correct = true;
      attempted = 150;
      failed = 0;
      metrics =
        [ { U.m_name = "op_wall_ms_p50"; m_unit = "ms"; m_value = 62.763214111328125 };
          { U.m_name = "setup_s"; m_unit = "s"; m_value = 8.106231689453125e-05 };
          { U.m_name = "op_ok_ratio"; m_unit = "ratio"; m_value = 1.0 };
          { U.m_name = "ops_per_s"; m_unit = "1/s"; m_value = 1. /. 3. } ] }
  in
  let text = Json.to_string (U.result_to_json r) in
  (match Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    Alcotest.(check (list string)) "exactly the verdict keys"
      [ "correct"; "attempted"; "failed"; "metrics" ]
      (match j with Json.Obj kvs -> List.map fst kvs | _ -> []);
    match U.result_of_json j with
    | Error e -> Alcotest.fail e
    | Ok r' -> Alcotest.(check bool) "round trip is exact" true (r = r')));
  match Json.parse {|{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1.0}}}|} with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check bool) "a metric without a unit is rejected" true
      (Result.is_error (U.result_of_json j))

let () =
  Alcotest.run "perfbench"
    [ ( "helpers",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "ratios keep their base" `Quick test_ratio;
          Alcotest.test_case "span self-time subtraction" `Quick test_self_time;
          Alcotest.test_case "results JSON round trip" `Quick test_result_round_trip ] ) ]
