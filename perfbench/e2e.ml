(* End-to-end reconfiguration benchmark with per-layer attribution.

   One closed loop with one client: the next operation starts only when
   the previous one has converged.  Three workloads (see README.md for why
   each was chosen):

   - boot-torus16: cold boot of torus:16,16 (2 hosts per switch, tuned
     params, switch UIDs permuted by the seed); one operation is
     Network.start until converged.
   - faults-torus12: a converged torus:12,12 (same hosts and params; its
     boot is set-up); one operation is one seeded single-link failure or
     repair until converged, in cycles of [fail N; repair N; fail T;
     repair T] where N is off the reference spanning tree (delta-eligible)
     and T is on it (structural).  16x16 would cost ~10 s per fault and
     over 4 GB of peak heap.
   - chaos-torus3: Chaos.schedule_for schedules on torus:3,3 (2 hosts,
     fast params, 12 faults landing mid-boot) run one after another; one
     operation is one whole schedule including Oracle.check.

   The number of operations in a run depends only on the workload and
   --seconds (see [op_count]), never on how fast the code runs, so every
   commit measures the same inputs for a seed.

   The plain run (--trace 0) uses the default telemetry mode and times
   only whole operations.  The traced run (--trace 1) turns telemetry on,
   drives convergence with its own loop of 2 ms Engine.run slices and
   Network.converged polls (the loop of run_until_converged) with a span
   around every call, and after each operation replays each layer's pure
   functions on the operation's real inputs, scaling every replayed cost
   by how often the program made that call.  It also runs a determinism
   guard in two child processes (plain at the same domain count, traced
   at the other one) and compares their simulated results with its own.

   Every operation is checked outside its timed region.  The last line of
   standard output is the verdict JSON. *)

open Autonet_core
open Autonet_autopilot
module N = Autonet.Network
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module Rng = Autonet_sim.Rng
module F = Autonet_topo.Faults
module Chaos = Autonet_chaos.Chaos
module Oracle = Autonet_chaos.Oracle
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline
module Json = Autonet_telemetry.Json
module FT = Autonet_switch.Forwarding_table
module Pool = Autonet_parallel.Pool
module U = Bench_util

type workload = Boot | Faults | Chaos_wl

let workload_name = function
  | Boot -> "boot-torus16"
  | Faults -> "faults-torus12"
  | Chaos_wl -> "chaos-torus3"

let chaos_config =
  { Chaos.default_config with Chaos.topo = "torus:3,3"; hosts = 2 }

module B = Autonet_topo.Builders

(* A k x k torus with 2 host ports per switch and switch UIDs permuted
   by [seed]: the root (smallest UID) and every tie-break of the spanning
   tree move with it, so each seed is a different input. *)
let torus k ~seed () =
  let uid_of = B.shuffled_uids (Rng.create ~seed) (k * k) in
  B.attach_hosts (B.torus ~uid_of ~rows:k ~cols:k ()) ~per_switch:2
let boot_timeout = Time.s 300

(* --- Clocks and process counters --- *)

let wall = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Allocated words across all domains. *)
let allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let timed f =
  let t0 = wall () in
  let v = f () in
  (v, wall () -. t0)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* --- Simulated-result fingerprints (the determinism guard) --- *)

type fp = {
  sim_ns : int;
  events : int;
  packets : int;
  bytes : int;
  epochs : int;
  phases : (string * int) list;  (* traced runs only: summed sim ns per phase *)
}

let fp_to_json f =
  Json.Obj
    [ ("sim_ns", Json.Int f.sim_ns);
      ("events", Json.Int f.events);
      ("packets", Json.Int f.packets);
      ("bytes", Json.Int f.bytes);
      ("epochs", Json.Int f.epochs);
      ("phases", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) f.phases)) ]

let fp_of_json j =
  let int k = Option.value ~default:(-1) (Option.bind (Json.member k j) Json.to_int) in
  { sim_ns = int "sim_ns";
    events = int "events";
    packets = int "packets";
    bytes = int "bytes";
    epochs = int "epochs";
    phases =
      (match Json.member "phases" j with
      | Some (Json.Obj kvs) ->
        List.map (fun (k, v) -> (k, Option.value ~default:(-1) (Json.to_int v))) kvs
      | _ -> []) }

(* Differences between two fingerprints of the same operation; phases are
   compared only when both sides recorded them. *)
let fp_diff ~what a b =
  let d name x y =
    if x = y then [] else [ Printf.sprintf "%s: %s %d vs %d" what name x y ]
  in
  d "sim_reconfig_ns" a.sim_ns b.sim_ns
  @ d "engine.events" a.events b.events
  @ d "fabric.packets" a.packets b.packets
  @ d "fabric.bytes" a.bytes b.bytes
  @ d "autopilot.epochs" a.epochs b.epochs
  @
  if a.phases = [] || b.phases = [] || a.phases = b.phases then []
  else [ Printf.sprintf "%s: phase.* sim times differ" what ]

(* --- Counter snapshots around an operation --- *)

type snap = {
  s_now : Time.t;
  s_events : int;
  s_packets : int;
  s_bytes : int;
  s_started : int array;
  s_configs : int array;
  s_lost : int;
  s_logged : int array;  (* per-switch Event_log.total_logged *)
}

let switches net = Graph.switch_count (N.graph net)

let snap net =
  let n = switches net in
  let st = Array.init n (fun s -> Autopilot.stats (N.autopilot net s)) in
  let fs = Fabric.stats (N.fabric net) in
  { s_now = N.now net;
    s_events = Engine.events_executed (N.engine net);
    s_packets = fs.Fabric.packets_sent;
    s_bytes = fs.Fabric.bytes_sent;
    s_started = Array.map (fun s -> s.Autopilot.reconfigurations_started) st;
    s_configs = Array.map (fun s -> s.Autopilot.configurations_completed) st;
    s_lost = Array.fold_left (fun a s -> a + s.Autopilot.packets_lost_to_reset) 0 st;
    s_logged =
      Array.init n (fun s -> Event_log.total_logged (Autopilot.event_log (N.autopilot net s))) }

let zero_snap net =
  let n = switches net in
  { s_now = Time.zero; s_events = 0; s_packets = 0; s_bytes = 0;
    s_started = Array.make n 0; s_configs = Array.make n 0; s_lost = 0;
    s_logged = Array.make n 0 }

let sum a = Array.fold_left ( + ) 0 a

(* Simulated reconfiguration time: first epoch start after [before] to the
   last switch configured — the formula of Network.measure_reconfiguration. *)
let sim_reconfig net before =
  let t0 = before.s_now in
  let first = ref None and last = ref t0 in
  for s = 0 to switches net - 1 do
    let st = Autopilot.stats (N.autopilot net s) in
    if st.Autopilot.reconfigurations_started > before.s_started.(s) then
      Option.iter
        (fun at -> first := Some (match !first with None -> at | Some c -> Time.min c at))
        st.Autopilot.last_epoch_started_at;
    match st.Autopilot.last_configured_at with
    | Some at when at > t0 -> last := Time.max !last at
    | _ -> ()
  done;
  Time.sub !last (Option.value ~default:t0 !first)

(* Chaos heal time: last fault to the last switch configured. *)
let heal_time net ~last_fault =
  let last = ref last_fault in
  for s = 0 to switches net - 1 do
    match (Autopilot.stats (N.autopilot net s)).Autopilot.last_configured_at with
    | Some at -> last := Time.max !last at
    | None -> ()
  done;
  Time.sub !last last_fault

(* Summed sim ns per reconfiguration phase over the complete epochs that
   started at or after [t0]. *)
let phase_totals net ~t0 =
  match N.timeline net with
  | None -> []
  | Some tl ->
    let eps =
      List.filter
        (fun e -> e.Timeline.es_complete && e.Timeline.es_start >= t0)
        (Timeline.epochs tl)
    in
    List.map
      (fun name ->
        ( name,
          List.fold_left
            (fun acc e ->
              List.fold_left
                (fun acc p ->
                  if p.Timeline.ph_name = name then
                    acc + Time.sub p.Timeline.ph_stop p.Timeline.ph_start
                  else acc)
                acc e.Timeline.es_phases)
            0 eps ))
      Timeline.phase_names

let fingerprint net before after ~sim ~traced =
  { sim_ns = sim;
    events = after.s_events - before.s_events;
    packets = after.s_packets - before.s_packets;
    bytes = after.s_bytes - before.s_bytes;
    epochs = sum after.s_started - sum before.s_started;
    phases = (if traced then phase_totals net ~t0:before.s_now else []) }

(* --- Checks, outside the timed region --- *)

let assignment_of g report =
  Address_assign.make g
    (List.filter_map
       (fun (d : Topology_report.switch_desc) ->
         Option.map (fun rs -> (rs, d.proposed_number)) (Graph.switch_of_uid g d.uid))
       (Topology_report.switches report))

(* The full step-5 pipeline up to routes, from one complete report. *)
type pipeline = {
  p_graph : Graph.t;
  p_tree : Spanning_tree.t;
  p_assignment : Address_assign.t;
  p_updown : Updown.t;
  p_routes : Routes.t;
}

let pipeline report ~uid =
  let g = Topology_report.to_graph report in
  Option.map
    (fun me ->
      let tree = Spanning_tree.compute g ~member:me in
      let updown = Updown.orient g tree in
      { p_graph = g; p_tree = tree; p_assignment = assignment_of g report; p_updown = updown;
        p_routes = Routes.compute g tree updown })
    (Graph.switch_of_uid g uid)

(* The oracle's Delta_mismatch rule applied from outside: every switch that
   took the delta path must have loaded exactly what the full pipeline
   computes from its complete report, with the same switch number and (at
   the root) the same deadlock verdict.  Switches holding an equal report
   share one pipeline run (a converged component's reports are identical),
   so the check allocates one table per switch rather than one whole
   pipeline. *)
let delta_mismatches net =
  let out = ref [] in
  let cache = ref [] in
  let shared report ~uid =
    match List.find_opt (fun (r, _) -> Topology_report.equal r report) !cache with
    | Some (_, p) -> p
    | None ->
      let p = pipeline report ~uid in
      cache := (report, p) :: !cache;
      p
  in
  for s = switches net - 1 downto 0 do
    let pilot = N.autopilot net s in
    let uid = Autopilot.uid pilot in
    match (Autopilot.delta_spec pilot, Autopilot.complete_report pilot) with
    | None, _ -> ()
    | Some _, None -> out := Printf.sprintf "s%d: delta spec without a complete report" s :: !out
    | Some spec, Some report -> (
      let located =
        Option.bind (shared report ~uid) (fun p ->
            Option.map (fun me -> (p, me)) (Graph.switch_of_uid p.p_graph uid))
      in
      match located with
      | Some (p, me) ->
        let full = Tables.build p.p_graph p.p_tree p.p_updown p.p_routes p.p_assignment me in
        if not (Tables.equal_spec spec full) then
          out := Printf.sprintf "s%d: delta table differs from the full recompute" s :: !out;
        if Autopilot.switch_number pilot <> Address_assign.number p.p_assignment me then
          out := Printf.sprintf "s%d: delta switch number differs" s :: !out;
        (match Autopilot.root_verdict pilot with
        | None -> ()
        | Some v ->
          let all = Tables.build_all p.p_graph p.p_tree p.p_updown p.p_routes p.p_assignment in
          let agree =
            match (v, Deadlock.check_tables p.p_graph all) with
            | Deadlock.Acyclic, Deadlock.Acyclic | Deadlock.Cycle _, Deadlock.Cycle _ -> true
            | _ -> false
          in
          if not agree then out := Printf.sprintf "s%d: delta deadlock verdict differs" s :: !out)
      | None -> out := Printf.sprintf "s%d: not in its own report" s :: !out)
  done;
  !out

(* --- Per-layer replay (traced run) --- *)

(* Mean seconds per call of each replayed layer function, measured on the
   inputs the operation left behind. *)
type replay = {
  r_to_graph : float;
  r_tree : float;
  r_assign : float;
  r_updown : float;
  r_routes : float;
  r_tables : float;
  r_load_ns_per_entry : float;
  r_load_constant : float;
  r_codec : float;
  r_report_bytes : float;
  r_tables_all : float;
  r_deadlock : float;
}

(* Replays and read-back sweeps cover up to 32 evenly spaced switches;
   switches of a torus are alike, so the mean over the sample stands for
   every switch. *)
let sampled net s =
  let n = switches net in
  s mod Stdlib.max 1 ((n + 31) / 32) = 0

let replay net =
  let n = switches net in
  let acc = Array.make 8 0. and calls = ref 0 in
  let entries = ref 0 and load_s = ref 0. and bytes = ref 0 in
  let root = ref None in
  for s = 0 to n - 1 do
    let pilot = N.autopilot net s in
    match Autopilot.complete_report pilot with
    | Some report when Autopilot.powered pilot && Autopilot.configured pilot -> (
      if Autopilot.root_verdict pilot <> None then begin
        match !root with
        | Some (_, r) when Topology_report.size r >= Topology_report.size report -> ()
        | _ -> root := Some (s, report)
      end;
      if sampled net s then
        let g, t_graph = timed (fun () -> Topology_report.to_graph report) in
        match Graph.switch_of_uid g (Autopilot.uid pilot) with
        | None -> ()
        | Some me ->
          let tree, t_tree = timed (fun () -> Spanning_tree.compute g ~member:me) in
          let assignment, t_assign = timed (fun () -> assignment_of g report) in
          let updown, t_updown = timed (fun () -> Updown.orient g tree) in
          let routes, t_routes = timed (fun () -> Routes.compute g tree updown) in
          let spec, t_tables =
            timed (fun () -> Tables.build g tree updown routes assignment me)
          in
          (* The switch's table is reused across epochs: time a reload of
             a table that has held this spec once already, after a
             constant load, as the program does. *)
          let ft = FT.create ~max_ports:(FT.max_ports (Autopilot.forwarding_table pilot)) in
          FT.load_spec ft spec;
          let (), t_const = timed (fun () -> FT.load_constant ft) in
          let (), t_load = timed (fun () -> FT.load_spec ft spec) in
          let msg = Messages.Complete { epoch = Autopilot.epoch pilot; seq = 0; report } in
          let wire, t_codec =
            timed (fun () ->
                let w = Messages.encode msg in
                ignore (Messages.decode w);
                w)
          in
          List.iteri
            (fun i t -> acc.(i) <- acc.(i) +. t)
            [ t_graph; t_tree; t_assign; t_updown; t_routes; t_tables; t_const; t_codec ];
          incr calls;
          entries := !entries + Tables.entry_count spec;
          load_s := !load_s +. t_load;
          bytes := !bytes + String.length wire)
    | _ -> ()
  done;
  let mean i = if !calls = 0 then 0. else acc.(i) /. float_of_int !calls in
  let t_all, t_dl =
    match !root with
    | None -> (0., 0.)
    | Some (s, report) -> (
      match pipeline report ~uid:(Autopilot.uid (N.autopilot net s)) with
      | None -> (0., 0.)
      | Some p ->
        let pool = Pool.default () in
        let all, t_all =
          timed (fun () ->
              Tables.build_all ~pool p.p_graph p.p_tree p.p_updown p.p_routes p.p_assignment)
        in
        let _, t_dl = timed (fun () -> Deadlock.check_tables ~pool p.p_graph all) in
        (t_all, t_dl))
  in
  { r_to_graph = mean 0;
    r_tree = mean 1;
    r_assign = mean 2;
    r_updown = mean 3;
    r_routes = mean 4;
    r_tables = mean 5;
    r_load_ns_per_entry =
      (if !entries = 0 then 0. else !load_s *. 1e9 /. float_of_int !entries);
    r_load_constant = mean 6;
    r_codec = mean 7;
    r_report_bytes = (if !calls = 0 then 0. else float_of_int !bytes /. float_of_int !calls);
    r_tables_all = t_all;
    r_deadlock = t_dl }

(* How often the program made each replayed call during the operation,
   from each switch's own event log: Tables_computed carries the size of
   the report a step-5 computation ran on, Delta_applied marks the delta
   path, Root_verified the root's check, and Configured a finished load.
   The replay runs on the final report of N switches, so a call on a
   k-switch report (a boot-time fragment, a partition) counts as (k/N) of
   a call for the per-switch layers and (k/N)^2 for the all-pairs ones
   (routes, all tables, the deadlock check).  The delta compute times are
   not replayed: they are the wall-clock spans the program records in its
   timeline. *)
type calls = {
  c_finish : float;  (* step-5 computations, weighted k/N *)
  c_full : float;  (* ... that took the full path, k/N *)
  c_full_sq : float;  (* ... the same, (k/N)^2 *)
  c_roots : float;  (* root completions, k/N *)
  c_root_full_sq : float;  (* ... that ran build_all and the check, (k/N)^2 *)
  c_loads : int;  (* spec loads that finished *)
  c_loads_w : float;  (* ... weighted k/N *)
  c_entries : float;  (* entries those loads wrote *)
  c_const_loads : int;  (* step-1 constant loads: one per epoch entered *)
  c_delta_hits : int;  (* the autopilot.delta_* counters *)
  c_delta_fallbacks : int;
  c_delta_classify_s : float;
  c_delta_apply_s : float;
}

let op_events net before s =
  let log = Autopilot.event_log (N.autopilot net s) in
  let es = Event_log.entries log in
  let fresh = Stdlib.min (Event_log.total_logged log - before.s_logged.(s)) (List.length es) in
  List.filteri (fun i _ -> i >= List.length es - fresh) es

let delta_counters net =
  let snap = N.telemetry_snapshot net in
  ( Metrics.counter_value snap "autopilot.delta_hits",
    Metrics.counter_value snap "autopilot.delta_fallbacks" )

let count_calls net before ~hits0 ~fallbacks0 =
  let after = snap net in
  let hits, fallbacks = delta_counters net in
  let finish = ref 0. and full = ref 0. and full_sq = ref 0. in
  let roots = ref 0. and root_full_sq = ref 0. in
  let loads = ref 0 and loads_w = ref 0. and entries = ref 0. in
  for s = 0 to switches net - 1 do
    let pilot = N.autopilot net s in
    match Autopilot.complete_report pilot with
    | None -> ()
    | Some report ->
      let size = float_of_int (Topology_report.size report) in
      let w = ref 0. and on_delta = ref false and my_w = ref 0. in
      List.iter
        (fun (e : Event_log.entry) ->
          match e.Event_log.event with
          | Event.Epoch_started _ -> w := 0.
          | Event.Tables_computed { switches; _ } ->
            w := float_of_int switches /. size;
            on_delta := false;
            finish := !finish +. !w;
            full := !full +. !w;
            full_sq := !full_sq +. (!w *. !w)
          | Event.Delta_applied _ ->
            on_delta := true;
            full := !full -. !w;
            full_sq := !full_sq -. (!w *. !w)
          | Event.Root_verified _ | Event.Root_deadlock _ ->
            roots := !roots +. !w;
            if not !on_delta then root_full_sq := !root_full_sq +. (!w *. !w)
          | Event.Configured _ when !w > 0. ->
            incr loads;
            my_w := !my_w +. !w
          | _ -> ())
        (op_events net before s);
      loads_w := !loads_w +. !my_w;
      entries :=
        !entries +. (!my_w *. float_of_int (FT.entry_count (Autopilot.forwarding_table pilot)))
  done;
  let span_s names =
    match N.timeline net with
    | None -> 0.
    | Some tl ->
      List.fold_left
        (fun a sp ->
          if sp.Timeline.sp_time >= before.s_now && List.mem sp.Timeline.sp_name names then
            a +. (float_of_int sp.Timeline.sp_dur_ns /. 1e9)
          else a)
        0. (Timeline.spans tl)
  in
  { c_finish = !finish;
    c_full = !full;
    c_full_sq = !full_sq;
    c_roots = !roots;
    c_root_full_sq = !root_full_sq;
    c_loads = !loads;
    c_loads_w = !loads_w;
    c_entries = !entries;
    c_const_loads = sum after.s_started - sum before.s_started;
    c_delta_hits = hits - hits0;
    c_delta_fallbacks = fallbacks - fallbacks0;
    c_delta_classify_s = span_s [ "delta_classify" ];
    c_delta_apply_s = span_s [ "delta_routes"; "delta_tables"; "delta_deadlock" ] }

(* Seconds each replayed layer cost the operation: replayed cost per call
   times the program's (weighted) call count.  to_graph and the spanning
   tree run in every step-5 computation and again in the load-finish
   closure; every non-root member receives one Complete message. *)
let attribute r c =
  let f = float_of_int in
  [ ( "ft.load_s",
      (r.r_load_ns_per_entry *. c.c_entries /. 1e9) +. (r.r_load_constant *. f c.c_const_loads) );
    ("core.to_graph_s", r.r_to_graph *. (c.c_finish +. c.c_loads_w));
    ("core.tree_s", r.r_tree *. (c.c_finish +. c.c_loads_w));
    ("core.assign_s", r.r_assign *. c.c_finish);
    ("core.updown_s", r.r_updown *. c.c_full);
    ("core.routes_s", r.r_routes *. c.c_full_sq);
    ("core.tables_s", r.r_tables *. c.c_full);
    ("core.tables_all_s", r.r_tables_all *. c.c_root_full_sq);
    ("core.deadlock_s", r.r_deadlock *. c.c_root_full_sq);
    ("core.delta_classify_s", c.c_delta_classify_s);
    ("core.delta_apply_s", c.c_delta_apply_s);
    ("messages.codec_s", r.r_codec *. (c.c_finish -. c.c_roots)) ]

(* --- Operations --- *)

type ctx = {
  tr : U.recorder option;
  guard : bool;  (* a determinism-guard child: fingerprints only, no checks *)
}

let traced ctx = ctx.tr <> None
let telemetry ctx : N.telemetry_mode = if traced ctx then `On else `Disabled

let span ctx name f = match ctx.tr with None -> f () | Some r -> U.with_span r name f

let create ctx ~params ~seed topo =
  span ctx "network.create" (fun () -> N.create ~params ~seed ~telemetry:(telemetry ctx) topo)

(* Run to convergence: Network.run_until_converged in the plain run; the
   same loop of 2 ms Engine.run slices with a span around every call in
   the traced run. *)
let converge ctx net ~timeout =
  match ctx.tr with
  | None -> N.run_until_converged ~timeout net
  | Some r ->
    let engine = N.engine net in
    let deadline = Time.add (N.now net) timeout in
    let slice = Time.ms 2 in
    let rec loop () =
      if U.with_span r "network.converged" (fun () -> N.converged net) then Some (N.now net)
      else if N.now net >= deadline then None
      else begin
        U.with_span r "engine.run" (fun () ->
            Engine.run engine ~until:(Time.min deadline (Time.add (N.now net) slice)));
        loop ()
      end
    in
    loop ()

(* Chaos.run_schedule, spelled out step by step in the traced run so that
   each call gets its span. *)
let chaos_schedule ctx ~seed ~schedule =
  let cfg = chaos_config in
  match ctx.tr with
  | None -> Chaos.run_schedule cfg ~seed ~schedule
  | Some _ ->
    let topo = Chaos.build_topo cfg.Chaos.topo ~seed ~hosts:cfg.Chaos.hosts in
    let net = create ctx ~params:cfg.Chaos.params ~seed topo in
    N.start net;
    N.schedule_faults net schedule;
    let last = List.fold_left (fun acc (it : F.item) -> Time.max acc it.F.at) Time.zero schedule in
    span ctx "engine.run" (fun () -> N.run_for net (Time.add last (Time.ms 1)));
    let violations =
      match converge ctx net ~timeout:cfg.Chaos.timeout with
      | None -> [ Oracle.Not_converged ]
      | Some _ -> (
        match span ctx "oracle.check" (fun () -> Oracle.check net) with
        | vs -> vs
        | exception e -> [ Oracle.Check_raised (Printexc.to_string e) ])
    in
    (net, violations)

type op = {
  o_label : string;
  o_wall : float;
  o_cpu : float;
  o_alloc : float;
  o_gc : int * int * float;  (* minor, major collections; promoted words *)
  o_sim_ms : float;
  o_fp : fp;
  o_lost : int;  (* packets lost to table-reload resets *)
  o_max_queue : int;
  o_failure : string option;
  o_layers : (string * float) list;  (* traced: per-layer seconds *)
  o_calls : calls option;
  o_replay : replay option;
  o_spans : U.span list;
}

(* Time one operation: wall, process CPU, allocation and collections
   around [run].  The simulated fields are filled in by [finish]. *)
let measure ctx ~label run =
  let g0 = Gc.quick_stat () in
  let c0 = cpu () in
  let t0 = wall () in
  let result = span ctx "op" run in
  let t1 = wall () in
  let c1 = cpu () in
  let g1 = Gc.quick_stat () in
  (result, { o_label = label; o_wall = t1 -. t0; o_cpu = c1 -. c0;
             o_alloc = allocated g1 -. allocated g0;
             o_gc = (g1.Gc.minor_collections - g0.Gc.minor_collections,
                     g1.Gc.major_collections - g0.Gc.major_collections,
                     g1.Gc.promoted_words -. g0.Gc.promoted_words);
             o_sim_ms = 0.; o_fp = fp_of_json (Json.Obj []); o_lost = 0; o_max_queue = 0;
             o_failure = None;
             o_layers = []; o_calls = None; o_replay = None; o_spans = [] })

(* The closed spans recorded so far, forgotten by the recorder. *)
let harvest ctx =
  match ctx.tr with
  | None -> []
  | Some r ->
    let spans = U.spans r in
    U.clear r;
    spans

(* After the operation, outside its timing: fingerprint, checks, and in
   the traced run the per-layer replay and span harvest. *)
let finish ctx op net before ~sim ~failure ~hits0 ~fallbacks0 =
  let after = snap net in
  let op =
    { op with o_sim_ms = Time.to_float_ms sim;
              o_fp = fingerprint net before after ~sim ~traced:(traced ctx);
              o_lost = after.s_lost - before.s_lost;
              o_max_queue = Engine.max_queue_length (N.engine net);
              o_failure = failure }
  in
  let spans = harvest ctx in
  if spans = [] || ctx.guard then op
  else begin
    let calls = count_calls net before ~hits0 ~fallbacks0 in
    (* Replay from a clean collector state, so that one operation's
       pending major-GC work is not billed to whichever layer replays
       first. *)
    Gc.full_major ();
    let rp = replay net in
    (* One Network.loaded_spec sweep over the powered switches (what the
       chaos oracle reads), sampled like the replay and scaled up. *)
    let powered = ref 0 and read = ref 0 in
    let (), read_s =
      timed (fun () ->
          for s = 0 to switches net - 1 do
            if Autopilot.powered (N.autopilot net s) then begin
              incr powered;
              if sampled net s then begin
                incr read;
                ignore (N.loaded_spec net s)
              end
            end
          done)
    in
    let read_s = if !read = 0 then 0. else read_s *. float_of_int !powered /. float_of_int !read in
    let by_name name =
      List.fold_left
        (fun a (s : U.span) -> if s.U.name = name then a +. (s.U.stop -. s.U.start) else a)
        0. spans
    in
    let count name = List.length (List.filter (fun (s : U.span) -> s.U.name = name) spans) in
    let layers =
      attribute rp calls
      @ [ ("ft.read_s", read_s);
          ("engine.run_s", by_name "engine.run");
          ("network.converged_s", by_name "network.converged");
          ("network.converged_calls", float_of_int (count "network.converged"));
          ("oracle.check_s", by_name "oracle.check") ]
    in
    { op with o_layers = layers; o_calls = Some calls; o_replay = Some rp; o_spans = spans }
  end

let check ctx f = if ctx.guard then None else f ()

let check_converged_and_reference ~converged net =
  if not converged then Some "did not converge within the timeout"
  else if not (N.verify_against_reference net) then
    Some "Network.verify_against_reference failed"
  else None

(* --- Workloads --- *)

type run = {
  setup_s : float list;  (* one entry per block of set-ups; the metric is their median *)
  setup_extra_s : float;  (* the faults workload's boot *)
  setup_fp : fp option;
  setup_spans : U.span list;  (* traced: the set-ups' network.create spans *)
  ops : op list;
}

(* Operations per run: a fixed function of the workload and [seconds],
   so that the inputs never depend on how fast the code runs.  The rates
   make a run measure roughly [seconds] on the baseline machine
   (README.md): a boot takes ~7.5 s, a fault ~2 s, a schedule ~30 ms. *)
let op_count w ~seconds =
  let per rate = Stdlib.max 1 (int_of_float (Float.round (seconds *. rate))) in
  match w with
  | Boot -> per (1. /. 6.)
  | Faults -> 4 * per (1. /. 10.)
  | Chaos_wl -> per 20.

let run_ops count next =
  let rec go i acc = if i >= count then List.rev acc else go (i + 1) (next i :: acc) in
  go 0 []

(* setup_s is the median over [setup_blocks] blocks of the mean time of
   one set-up (topology build plus Network.create) in a block of [per].
   A tori set-up takes a few ms and a chaos one ~50 us, so one set-up
   alone is mostly host noise.  The traced run spans each create. *)
let setup_blocks = 7

let setup_per = function Boot | Faults -> 10 | Chaos_wl -> 1000

let time_setups ctx w make =
  let per = setup_per w in
  let times =
    List.init setup_blocks (fun b ->
        let (), t =
          timed (fun () ->
              for i = 0 to per - 1 do
                ignore (Sys.opaque_identity (make ((b * per) + i)))
              done)
        in
        t /. float_of_int per)
  in
  (times, harvest ctx)

let tuned_create ctx ~seed topo = create ctx ~params:Params.tuned ~seed:(Int64.of_int seed) topo

(* Each boot of a run gets its own UID permutation, drawn from the seed. *)
let run_boot ctx ~seed ~count =
  let boot_seed i = Chaos.schedule_seed ~seed:(Int64.of_int seed) i in
  let setup_s, setup_spans =
    time_setups ctx Boot (fun _ -> tuned_create ctx ~seed (torus 16 ~seed:(boot_seed 0) ()))
  in
  let ops =
    run_ops count (fun i ->
        let net =
          N.create ~params:Params.tuned ~seed:(Int64.of_int seed) ~telemetry:(telemetry ctx)
            (torus 16 ~seed:(boot_seed i) ())
        in
        Gc.full_major ();
        let before = zero_snap net in
        let conv, op =
          measure ctx ~label:(Printf.sprintf "boot #%d" i) (fun () ->
              N.start net;
              converge ctx net ~timeout:boot_timeout)
        in
        let failure =
          check ctx (fun () -> check_converged_and_reference ~converged:(conv <> None) net)
        in
        finish ctx op net before ~sim:(sim_reconfig net before) ~failure ~hits0:0 ~fallbacks0:0)
  in
  { setup_s; setup_extra_s = 0.; setup_fp = None; setup_spans; ops }

let run_faults ctx ~seed ~count =
  let topo = torus 12 ~seed:(Int64.of_int seed) in
  let setup_s, setup_spans = time_setups ctx Faults (fun _ -> tuned_create ctx ~seed (topo ())) in
  let net =
    N.create ~params:Params.tuned ~seed:(Int64.of_int seed) ~telemetry:(telemetry ctx) (topo ())
  in
  let before = zero_snap net in
  let conv, boot_s =
    timed (fun () ->
        N.start net;
        N.run_until_converged ~timeout:boot_timeout net)
  in
  if conv = None || not (N.verify_against_reference net) then
    failwith "faults-torus12: the set-up boot did not converge to the reference";
  let setup_fp =
    fingerprint net before (snap net) ~sim:(sim_reconfig net before) ~traced:(traced ctx)
  in
  (* Each cycle of four operations fails one link off the reference
     spanning tree (tree-preserving: the delta path's case) and repairs
     it, then fails one on the tree (structural: a full epoch) and repairs
     it.  Every cycle starts on the whole torus, so an operation's input
     does not depend on how many came before it. *)
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let pick ~on_tree =
    let g = N.live_graph net in
    let tree = Spanning_tree.compute g ~member:0 in
    let links =
      List.filter
        (fun (l : Graph.link) -> Spanning_tree.is_tree_link tree l.Graph.id = on_tree)
        (Graph.links g)
    in
    (Rng.pick rng links).Graph.id
  in
  let failed = ref (-1) in
  let event i =
    match i mod 4 with
    | 0 | 2 ->
      failed := pick ~on_tree:(i mod 4 = 2);
      F.Link_down !failed
    | _ -> F.Link_up !failed
  in
  Gc.full_major ();
  let ops =
    run_ops count (fun i ->
        let ev = event i in
        let before = snap net in
        let hits0, fallbacks0 = if traced ctx then delta_counters net else (0, 0) in
        let conv, op =
          measure ctx ~label:(F.event_to_string ev) (fun () ->
              N.apply_fault net ev;
              converge ctx net ~timeout:boot_timeout)
        in
        let failure =
          check ctx (fun () ->
              match check_converged_and_reference ~converged:(conv <> None) net with
              | Some f -> Some f
              | None -> (
                match delta_mismatches net with
                | [] -> None
                | ms -> Some (String.concat "; " ms)))
        in
        finish ctx op net before ~sim:(sim_reconfig net before) ~failure ~hits0 ~fallbacks0)
  in
  { setup_s; setup_extra_s = boot_s; setup_fp = Some setup_fp; setup_spans; ops }

let run_chaos ctx ~seed ~count =
  let cseed = Int64.of_int seed in
  let ops =
    run_ops count (fun i ->
        let seed = Chaos.schedule_seed ~seed:cseed i in
        let schedule = Chaos.schedule_for chaos_config ~seed in
        let last_fault =
          List.fold_left (fun acc (it : F.item) -> Time.max acc it.F.at) Time.zero schedule
        in
        let (net, violations), op =
          measure ctx ~label:(Printf.sprintf "schedule #%d seed=0x%Lx" i seed) (fun () ->
              chaos_schedule ctx ~seed ~schedule)
        in
        let failure =
          match violations with
          | [] -> None
          | vs ->
            Some
              (String.concat "; "
                 (List.map (Format.asprintf "%a" Oracle.pp_violation) vs))
        in
        finish ctx op net (zero_snap net) ~sim:(heal_time net ~last_fault) ~failure
          ~hits0:0 ~fallbacks0:0)
  in
  (* Timed after the schedules, in a warm process, as a campaign pays it. *)
  let setup_s, setup_spans =
    time_setups ctx Chaos_wl (fun i ->
        let s = Chaos.schedule_seed ~seed:cseed i in
        create ctx ~params:chaos_config.Chaos.params ~seed:s
          (Chaos.build_topo chaos_config.Chaos.topo ~seed:s ~hosts:chaos_config.Chaos.hosts))
  in
  { setup_s; setup_extra_s = 0.; setup_fp = None; setup_spans; ops }

let run_workload w ctx ~seed ~count =
  ignore (Pool.default ());
  match w with
  | Boot -> run_boot ctx ~seed ~count
  | Faults -> run_faults ctx ~seed ~count
  | Chaos_wl -> run_chaos ctx ~seed ~count

let guard_ops = function Boot -> 1 | Faults -> 2 | Chaos_wl -> 20

(* --- Metrics --- *)

let fsum f l = List.fold_left (fun a x -> a +. f x) 0. l
let median l = U.percentile (Array.of_list l) 50.
let metric m_name m_unit m_value = { U.m_name; m_unit; m_value }

let fail_ratio run =
  let n = List.length run.ops in
  let failed = List.length (List.filter (fun o -> o.o_failure <> None) run.ops) in
  { U.num = float_of_int failed; den = float_of_int n }

let end_to_end run =
  let ops = run.ops in
  let n = float_of_int (List.length ops) in
  let walls = U.summarize (Array.of_list (List.map (fun o -> o.o_wall *. 1e3) ops)) in
  let sims = U.summarize (Array.of_list (List.map (fun o -> o.o_sim_ms) ops)) in
  let fr = fail_ratio run in
  [ metric "setup_s" "s" (median run.setup_s +. run.setup_extra_s);
    metric "op_wall_ms_p50" "ms" walls.U.p50;
    metric "op_wall_ms_p90" "ms" walls.U.p90;
    metric "ops_per_s" "1/s" (n /. fsum (fun o -> o.o_wall) ops);
    metric "cpu_ms_per_op" "ms" (fsum (fun o -> o.o_cpu) ops *. 1e3 /. n);
    metric "alloc_mwords_per_op" "Mwords" (fsum (fun o -> o.o_alloc) ops /. 1e6 /. n);
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
    metric "sim_reconfig_ms_p50" "ms" sims.U.p50;
    metric "sim_reconfig_ms_p90" "ms" sims.U.p90;
    metric "op_ok_ratio" "ratio" (1. -. U.ratio_value fr) ]

(* The replayed layers that run inside Engine.run. *)
let engine_layers =
  [ "ft.load_s"; "core.to_graph_s"; "core.tree_s"; "core.assign_s"; "core.updown_s";
    "core.routes_s"; "core.tables_s"; "core.tables_all_s"; "core.deadlock_s";
    "core.delta_classify_s"; "core.delta_apply_s"; "messages.codec_s" ]

let layer ops name =
  fsum (fun o -> Option.value ~default:0. (List.assoc_opt name o.o_layers)) ops

let attributed ops = List.fold_left (fun a l -> a +. layer ops l) 0. engine_layers

let per_layer run ~plain_wall_ms ~other_wall_ms =
  let ops = run.ops in
  let n = float_of_int (List.length ops) in
  let per_op name = layer ops name /. n in
  let calls f =
    fsum (fun o -> match o.o_calls with Some c -> float_of_int (f c) | None -> 0.) ops
  in
  let fp f = fsum (fun o -> float_of_int (f o.o_fp)) ops /. n in
  let phase names =
    fsum
      (fun o ->
        List.fold_left
          (fun a (k, v) -> if List.mem k names then a +. float_of_int v else a)
          0. o.o_fp.phases)
      ops
    /. n /. 1e6
  in
  let engine_s = layer ops "engine.run_s" in
  let hits = calls (fun c -> c.c_delta_hits) and fallbacks = calls (fun c -> c.c_delta_fallbacks) in
  let entries = fsum (fun o -> match o.o_calls with Some c -> c.c_entries | None -> 0.) ops in
  let replay f = fsum (fun o -> match o.o_replay with Some r -> f r | None -> 0.) ops /. n in
  (* The main run's wall over the operations a guard child also ran,
     against that child's: a ratio over the same inputs. *)
  let wall_ratio guard_walls =
    match guard_walls with
    | [] -> { U.num = 0.; den = 0. }
    | l ->
      { U.num = List.fold_left ( +. ) 0. l;
        den = fsum (fun o -> o.o_wall *. 1e3) (List.filteri (fun i _ -> i < List.length l) ops) }
  in
  let gc f = fsum (fun o -> f o.o_gc) ops /. n in
  (* Per set-up: the tori create outside their operations, in the
     set-up blocks; a chaos operation creates its own network too. *)
  let creates =
    List.filter_map
      (fun (s : U.span) -> if s.U.name = "network.create" then Some (s.U.stop -. s.U.start) else None)
      (run.setup_spans @ List.concat_map (fun o -> o.o_spans) ops)
  in
  Format.printf "  delta.hit_ratio %a (hits / attempts)@." U.pp_ratio
    { U.num = hits; den = hits +. fallbacks };
  Format.printf "  pool.wall_ratio_d2 %a (2-domain ms / 1-domain ms, same ops)@." U.pp_ratio
    (wall_ratio other_wall_ms);
  Format.printf "  plain / traced wall %a (ms, same ops)@." U.pp_ratio (wall_ratio plain_wall_ms);
  List.map (fun l -> metric l "s" (per_op l)) engine_layers
  @ [ metric "ft.loads" "count" (calls (fun c -> c.c_loads + c.c_const_loads) /. n);
      metric "ft.entries" "count" (entries /. n);
      metric "ft.ns_per_entry" "ns" (replay (fun r -> r.r_load_ns_per_entry));
      metric "ft.read_s" "s" (per_op "ft.read_s");
      metric "delta.hits" "count" (hits /. n);
      metric "delta.fallbacks" "count" (fallbacks /. n);
      metric "delta.hit_ratio" "ratio" (U.ratio_value { U.num = hits; den = hits +. fallbacks });
      metric "network.create_s" "s"
        (if creates = [] then 0. else fsum Fun.id creates /. float_of_int (List.length creates));
      metric "network.converged_s" "s" (per_op "network.converged_s");
      metric "network.converged_calls" "count" (per_op "network.converged_calls");
      metric "oracle.check_s" "s" (per_op "oracle.check_s");
      metric "engine.run_s" "s" (engine_s /. n);
      metric "engine.events" "count" (fp (fun f -> f.events));
      metric "engine.ns_per_event" "ns"
        (let ev = fsum (fun o -> float_of_int o.o_fp.events) ops in
         if ev = 0. then 0. else engine_s *. 1e9 /. ev);
      metric "engine.max_queue" "count"
        (float_of_int (List.fold_left (fun a o -> Stdlib.max a o.o_max_queue) 0 ops));
      metric "engine.unattributed_s" "s" ((engine_s -. attributed ops) /. n);
      metric "messages.report_bytes" "B" (replay (fun r -> r.r_report_bytes));
      metric "fabric.packets" "count" (fp (fun f -> f.packets));
      metric "fabric.bytes" "B" (fp (fun f -> f.bytes));
      metric "autopilot.epochs" "count" (fp (fun f -> f.epochs));
      metric "autopilot.lost_to_reset" "count" (fsum (fun o -> float_of_int o.o_lost) ops /. n);
      metric "sim.detect_ms" "ms" (phase [ "detection" ]);
      metric "phase.tree_ms" "ms"
        (phase [ "spanning_tree"; "termination"; "accumulation"; "assignment" ]);
      metric "phase.flood_ms" "ms" (phase [ "flood" ]);
      metric "phase.load_ms" "ms" (phase [ "table_load" ]);
      metric "gc.minor_collections" "count" (gc (fun (m, _, _) -> float_of_int m));
      metric "gc.major_collections" "count" (gc (fun (_, m, _) -> float_of_int m));
      metric "gc.promoted_mwords" "Mwords" (gc (fun (_, _, p) -> p /. 1e6));
      metric "trace.overhead_pct" "%"
        (let r = wall_ratio plain_wall_ms in
         if r.U.num = 0. then 0. else (1. /. U.ratio_value r -. 1.) *. 100.);
      metric "pool.wall_ratio_d2" "ratio" (U.ratio_value (wall_ratio other_wall_ms));
      metric "engine.attributed_share" "ratio"
        (U.ratio_value { U.num = attributed ops; den = engine_s }) ]

(* --- Reporting --- *)

let print_metrics title ms =
  Printf.printf "\n%s\n" title;
  List.iter (fun m -> Printf.printf "  %-26s %16.6f %s\n" m.U.m_name m.U.m_value m.U.m_unit) ms

let print_self_times run =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun o ->
      List.iter
        (fun (name, t, c) ->
          let t0, c0 = Option.value ~default:(0., 0) (Hashtbl.find_opt acc name) in
          Hashtbl.replace acc name (t0 +. t, c0 + c))
        (U.self_by_name o.o_spans))
    run.ops;
  let n = float_of_int (List.length run.ops) in
  let op_s = fsum (fun o -> o.o_wall) run.ops /. n in
  let row indent name s calls =
    Printf.printf "  %-28s %10.4f s/op %6.1f%% %s\n" (indent ^ name) s
      (if op_s > 0. then 100. *. s /. op_s else 0.)
      (match calls with Some c -> Printf.sprintf "(%d spans)" c | None -> "(replayed)")
  in
  Printf.printf "\nper-layer self time (traced run, mean per operation; %% of op wall)\n";
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (_, (a, _)) (_, (b, _)) -> Float.compare b a)
  |> List.iter (fun (name, (t, c)) ->
         row "" name (t /. n) (Some c);
         if name = "engine.run" then begin
           List.iter (fun l -> row "  " l (layer run.ops l /. n) None) engine_layers;
           row "  " "engine.unattributed_s"
             ((layer run.ops "engine.run_s" -. attributed run.ops) /. n) None
         end);
  Format.printf "  engine.attributed_share %a (replayed s / engine.run s)@." U.pp_ratio
    { U.num = attributed run.ops; den = layer run.ops "engine.run_s" };
  let calls f = fsum (fun o -> match o.o_calls with Some c -> f c | None -> 0.) run.ops /. n in
  Printf.printf
    "  calls per op (weighted by report size): step-5 %.1f (full path %.1f), root %.1f, \
     spec loads %.1f of %.1f, entries %.0f\n"
    (calls (fun c -> c.c_finish)) (calls (fun c -> c.c_full)) (calls (fun c -> c.c_roots))
    (calls (fun c -> c.c_loads_w)) (calls (fun c -> float_of_int c.c_loads))
    (calls (fun c -> c.c_entries))

let print_ops run =
  let ops = run.ops in
  let summary f = U.summarize (Array.of_list (List.map f ops)) in
  Format.printf
    "operations: %d; op wall %a; sim reconfiguration %a; setup %.6f s (median of %d block \
     means%s)@."
    (List.length ops)
    (U.pp_summary ~unit:"ms") (summary (fun o -> o.o_wall *. 1e3))
    (U.pp_summary ~unit:"ms") (summary (fun o -> o.o_sim_ms))
    (median run.setup_s) (List.length run.setup_s)
    (if run.setup_extra_s > 0. then Printf.sprintf ", plus the boot %.3f s" run.setup_extra_s
     else "");
  Format.printf "op_fail_ratio %a@." U.pp_ratio (fail_ratio run);
  match List.find_opt (fun o -> o.o_failure <> None) ops with
  | Some o ->
    Format.printf "FIRST FAILURE: %s: %s@." o.o_label (Option.get o.o_failure)
  | None -> ()

(* --- The determinism guard --- *)

let guard_to_json run =
  Json.Obj
    [ ("setup", match run.setup_fp with Some f -> fp_to_json f | None -> Json.Null);
      ("ops", Json.List (List.map (fun o -> fp_to_json o.o_fp) run.ops));
      ("walls_ms", Json.List (List.map (fun o -> Json.Float (o.o_wall *. 1e3)) run.ops)) ]

type guard = { g_what : string; g_setup : fp option; g_ops : fp list; g_walls_ms : float list }

(* Results, traces and guard fingerprints, relative to the repository root. *)
let out_dir = ".perfbench_out"

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let spawn_guard w ~seed ~trace ~domains =
  let path =
    Filename.concat out_dir
      (Printf.sprintf "%s-s%d-guard-t%d-d%d.json" (workload_name w) seed trace domains)
  in
  let what =
    Printf.sprintf "%s run at %d domain(s)" (if trace = 1 then "traced" else "plain") domains
  in
  let argv =
    [| Sys.executable_name; "--workload"; workload_name w; "--seed"; string_of_int seed;
       "--trace"; string_of_int trace; "--domains"; string_of_int domains; "--guard-out"; path |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> (
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse text with
    | Error e -> Error (what ^ ": unreadable guard output: " ^ e)
    | Ok j ->
      Ok
        { g_what = what;
          g_setup =
            (match Json.member "setup" j with
            | Some Json.Null | None -> None
            | Some f -> Some (fp_of_json f));
          g_ops =
            List.map fp_of_json (Option.fold ~none:[] ~some:Json.to_list (Json.member "ops" j));
          g_walls_ms =
            List.filter_map Json.to_float
              (Option.fold ~none:[] ~some:Json.to_list (Json.member "walls_ms" j)) })
  | _ -> Error (what ^ ": guard child failed")

let guard_mismatches run g =
  let setup =
    match (run.setup_fp, g.g_setup) with
    | Some a, Some b -> fp_diff ~what:(g.g_what ^ ", set-up boot") a b
    | None, None -> []
    | _ -> [ g.g_what ^ ": set-up fingerprint missing" ]
  in
  let ops =
    List.concat
      (List.mapi
         (fun i b ->
           match List.nth_opt run.ops i with
           | Some o -> fp_diff ~what:(Printf.sprintf "%s, op %d" g.g_what i) o.o_fp b
           | None -> [ Printf.sprintf "%s: op %d missing" g.g_what i ])
         g.g_ops)
  in
  setup @ ops

(* --- Main --- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let domains = ref 0 and guard_out = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME boot-torus16 | faults-torus12 | chaos-torus3");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal run length; sets the operation count");
      ("--trace", Arg.Set_int trace, "0|1 plain (end-to-end) or traced (per-layer) run");
      ("--domains", Arg.Set_int domains, "D pool domains (default 1)");
      ("--guard-out", Arg.Set_string guard_out, "PATH determinism-guard child mode") ]
  in
  let usage = "e2e.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match !workload with
    | "boot-torus16" -> Boot
    | "faults-torus12" -> Faults
    | "chaos-torus3" -> Chaos_wl
    | other ->
      prerr_endline ("unknown workload " ^ other);
      Arg.usage spec usage;
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  if not (!seconds > 0.) then (prerr_endline "--seconds must be positive"; exit 2);
  let nproc = Domain.recommended_domain_count () in
  (* One domain by default: with a second, parked pool domain every minor
     collection is a stop-the-world round trip to it, which on a shared
     2-core box made chaos operations ~1.6x slower and run-to-run wall
     spreads 3-4x wider.  The guard's second child runs at 2 domains and
     pool.wall_ratio_d2 reports what they cost. *)
  let doms = if !domains > 0 then !domains else 1 in
  (* Fixed before the shared pool is first used. *)
  Unix.putenv "AUTONET_DOMAINS" (string_of_int doms);
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let ctx =
    { tr = (if !trace = 1 then Some (U.recorder ()) else None); guard = !guard_out <> "" }
  in
  if !guard_out <> "" then begin
    let run = run_workload w ctx ~seed:!seed ~count:(guard_ops w) in
    write_file !guard_out (Json.to_string (guard_to_json run));
    exit 0
  end;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d domains=%d nproc=%d\n%!"
    (workload_name w) !seed !seconds !trace doms nproc;
  (* The guard children run first, while this process is still small, so
     two large heaps never coexist. *)
  let guards =
    if !trace = 0 then []
    else
      [ spawn_guard w ~seed:!seed ~trace:0 ~domains:doms;
        spawn_guard w ~seed:!seed ~trace:1 ~domains:(if doms = 1 then 2 else 1) ]
  in
  let run = run_workload w ctx ~seed:!seed ~count:(op_count w ~seconds:!seconds) in
  print_ops run;
  let guard_problems =
    List.concat_map (function Ok g -> guard_mismatches run g | Error e -> [ e ]) guards
  in
  List.iter (fun m -> Printf.printf "DETERMINISM GUARD MISMATCH: %s\n" m) guard_problems;
  if guards <> [] && guard_problems = [] then
    Printf.printf
      "determinism guard: plain vs traced and 1 vs 2 domains agree on the first %d op(s)\n"
      (guard_ops w);
  let metrics =
    if !trace = 0 then end_to_end run
    else begin
      let walls i =
        match List.nth_opt guards i with Some (Ok g) -> g.g_walls_ms | _ -> []
      in
      print_self_times run;
      let spans = List.concat_map (fun o -> o.o_spans) (List.filteri (fun i _ -> i < 3) run.ops) in
      let trace_path =
        Filename.concat out_dir (Printf.sprintf "%s-s%d.trace.json" (workload_name w) !seed)
      in
      write_file trace_path (Json.to_string (U.to_chrome_trace spans));
      Printf.printf "Chrome trace of the first %d op(s): %s\n" (Stdlib.min 3 (List.length run.ops))
        trace_path;
      per_layer run ~plain_wall_ms:(walls 0) ~other_wall_ms:(walls 1)
    end
  in
  print_metrics
    (if !trace = 0 then "end-to-end metrics" else "per-layer metrics (mean per operation)")
    metrics;
  let failed = List.length (List.filter (fun o -> o.o_failure <> None) run.ops) in
  let result =
    { U.correct = failed = 0 && guard_problems = [];
      attempted = List.length run.ops;
      failed;
      metrics }
  in
  let line = Json.to_string (U.result_to_json result) in
  write_file
    (Filename.concat out_dir (Printf.sprintf "%s-s%d-t%d.json" (workload_name w) !seed !trace))
    line;
  print_endline line
