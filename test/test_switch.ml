(* Tests for the switch hardware models: port vectors, the forwarding
   table, the first-come first-considered scheduler and the crossbar. *)

open Autonet_net
open Autonet_core
module B = Autonet_topo.Builders
module Rng = Autonet_sim.Rng
module PV = Autonet_switch.Port_vector
module FT = Autonet_switch.Forwarding_table
module Sch = Autonet_switch.Scheduler
module XB = Autonet_switch.Crossbar

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Port vectors *)

let test_pv_basics () =
  let v = PV.of_list [ 3; 1; 7 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 7 ] (PV.to_list v);
  check_bool "mem" true (PV.mem 3 v);
  check_bool "not mem" false (PV.mem 2 v);
  check_int "count" 3 (PV.count v);
  check_bool "lowest" true (PV.lowest v = Some 1);
  check_bool "empty lowest" true (PV.lowest PV.empty = None)

let test_pv_set_operations () =
  let a = PV.of_list [ 1; 2; 3 ] and b = PV.of_list [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (PV.to_list (PV.union a b));
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (PV.to_list (PV.inter a b));
  Alcotest.(check (list int)) "diff" [ 1 ] (PV.to_list (PV.diff a b));
  check_bool "subset" true (PV.subset (PV.of_list [ 2; 3 ]) a);
  check_bool "not subset" false (PV.subset b a)

let test_pv_bounds () =
  check_bool "port 15 ok" true (PV.mem 15 (PV.singleton 15));
  Alcotest.check_raises "port 16"
    (Invalid_argument "Port_vector: port 16 out of range") (fun () ->
      ignore (PV.singleton 16));
  check_int "full 12" 13 (PV.count (PV.full ~n_ports:12))

let pv_qcheck =
  QCheck.Test.make ~name:"port vector of_list/to_list" ~count:300
    QCheck.(small_list (int_bound 15))
    (fun l ->
      PV.to_list (PV.of_list l) = List.sort_uniq Int.compare l)

(* ------------------------------------------------------------------ *)
(* Forwarding table *)

let addr = Short_address.of_int

let test_ft_default_discard () =
  let t = FT.create ~max_ports:12 in
  let e = FT.lookup t ~in_port:3 ~dst:(addr 0x100) in
  check_bool "discard" true (e.FT.broadcast && PV.is_empty e.FT.vector)

let test_ft_set_lookup () =
  let t = FT.create ~max_ports:12 in
  FT.set t ~in_port:2 ~dst:(addr 0x123)
    { FT.vector = PV.of_list [ 4; 5 ]; broadcast = false };
  let e = FT.lookup t ~in_port:2 ~dst:(addr 0x123) in
  Alcotest.(check (list int)) "ports" [ 4; 5 ] (PV.to_list e.FT.vector);
  check_bool "not broadcast" false e.FT.broadcast;
  (* A different in-port does not see the entry. *)
  let e' = FT.lookup t ~in_port:3 ~dst:(addr 0x123) in
  check_bool "per in-port" true (PV.is_empty e'.FT.vector)

let test_ft_one_hop_constant () =
  let t = FT.create ~max_ports:12 in
  FT.load_constant t;
  (* From the control processor, one-hop address k goes out port k. *)
  for k = 1 to 12 do
    let e = FT.lookup t ~in_port:0 ~dst:(Short_address.one_hop ~port:k) in
    Alcotest.(check (list int)) "out k" [ k ] (PV.to_list e.FT.vector)
  done;
  (* From any other port it goes to the control processor. *)
  let e = FT.lookup t ~in_port:7 ~dst:(Short_address.one_hop ~port:3) in
  Alcotest.(check (list int)) "to cp" [ 0 ] (PV.to_list e.FT.vector)

let test_ft_generation_bumps () =
  let t = FT.create ~max_ports:12 in
  let g0 = FT.generation t in
  FT.load_constant t;
  check_bool "bumped" true (FT.generation t > g0);
  FT.clear t;
  check_bool "bumped again" true (FT.generation t > g0 + 1)

let test_ft_unset_and_rows () =
  let t = FT.create ~max_ports:12 in
  FT.set t ~in_port:1 ~dst:(addr 0x10) { FT.vector = PV.singleton 2; broadcast = false };
  FT.set t ~in_port:1 ~dst:(addr 0x20) { FT.vector = PV.singleton 3; broadcast = false };
  check_bool "has row" true (FT.has_row t ~in_port:1);
  check_int "rows" 2 (List.length (FT.rows_of t ~in_port:1));
  FT.unset t ~in_port:1 ~dst:(addr 0x10);
  check_int "one left" 1 (List.length (FT.rows_of t ~in_port:1));
  check_bool "no row elsewhere" false (FT.has_row t ~in_port:2)

(* The table a load used to copy entries into: one hashtable keyed by
   (in-port, address) tuples, cleared and refilled on every load.  Kept
   here as the reference model the installed-spec table must agree with
   on every observable. *)
module Model = struct
  type t = {
    ports : int;
    entries : (int * int, FT.entry) Hashtbl.t;
    mutable gen : int;
  }

  let create ~max_ports = { ports = max_ports; entries = Hashtbl.create 512; gen = 0 }
  let generation t = t.gen

  let set t ~in_port ~dst entry =
    if in_port < 0 || in_port > t.ports then
      invalid_arg "Forwarding_table.set: in_port out of range";
    Hashtbl.replace t.entries (in_port, Short_address.to_int dst) entry

  let lookup t ~in_port ~dst =
    match Hashtbl.find_opt t.entries (in_port, Short_address.to_int dst) with
    | Some e -> e
    | None -> FT.discard_entry

  let unset t ~in_port ~dst =
    Hashtbl.remove t.entries (in_port, Short_address.to_int dst)

  let has_row t ~in_port =
    Hashtbl.fold (fun (p, _) _ acc -> acc || p = in_port) t.entries false

  let rows_of t ~in_port =
    Hashtbl.fold
      (fun (p, a) e acc -> if p = in_port then (a, e) :: acc else acc)
      t.entries []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (a, e) -> (Short_address.of_int a, e))

  let clear t =
    Hashtbl.reset t.entries;
    t.gen <- t.gen + 1

  let install_one_hop t =
    for k = 1 to t.ports do
      let dst = Short_address.one_hop ~port:k in
      set t ~in_port:0 ~dst { vector = PV.singleton k; broadcast = false };
      for p = 1 to t.ports do
        set t ~in_port:p ~dst { vector = PV.singleton 0; broadcast = false }
      done
    done

  let load_constant t =
    clear t;
    install_one_hop t

  let load_spec t spec =
    clear t;
    install_one_hop t;
    Tables.fold spec ~init:() ~f:(fun () ~in_port ~dst e ->
        set t ~in_port ~dst
          { vector = PV.of_list e.Tables.ports; broadcast = e.Tables.broadcast })

  let entry_count t = Hashtbl.length t.entries
end

let of_spec_entry (e : Tables.entry) =
  { FT.vector = PV.of_list e.Tables.ports; broadcast = e.Tables.broadcast }

let test_ft_spec_load_shares () =
  (* A load installs the spec without copying or mutating it, and a
     post-load write shadows the spec only in the table. *)
  let c = Testlib.configure (B.attach_hosts (B.ring ~n:4 ()) ~per_switch:2) in
  let spec = List.hd c.Testlib.specs in
  let before = Tables.entry_count spec in
  let t = FT.create ~max_ports:(Graph.max_ports c.Testlib.graph) in
  FT.load_spec t spec;
  let dst = Address_assign.address c.Testlib.assignment 1 0 in
  let from_spec = Tables.lookup spec ~in_port:0 ~dst in
  check_bool "spec entry read" true
    (FT.lookup t ~in_port:0 ~dst = of_spec_entry from_spec);
  FT.unset t ~in_port:0 ~dst;
  check_bool "unset hides it" true (FT.lookup t ~in_port:0 ~dst = FT.discard_entry);
  check_bool "spec untouched" true
    (Tables.equal_entry (Tables.lookup spec ~in_port:0 ~dst) from_spec);
  check_int "spec count untouched" before (Tables.entry_count spec);
  FT.load_spec t spec;
  check_bool "reload restores it" true
    (FT.lookup t ~in_port:0 ~dst = of_spec_entry from_spec)

let test_ft_tombstoned_row_empty () =
  (* Unsetting every entry of a loaded row (what a host-port disable
     does) leaves no row, so a later enable copies row 0 again. *)
  let t = FT.create ~max_ports:12 in
  FT.load_constant t;
  List.iter (fun (dst, _) -> FT.unset t ~in_port:3 ~dst) (FT.rows_of t ~in_port:3);
  check_bool "constant row gone" false (FT.has_row t ~in_port:3);
  check_int "count" (12 * 13 - 12) (FT.entry_count t);
  let c = Testlib.configure (B.attach_hosts (B.ring ~n:4 ()) ~per_switch:2) in
  let spec = List.hd c.Testlib.specs in
  FT.load_spec t spec;
  let host_port =
    (List.find
       (fun (h : Graph.host_attachment) -> h.switch = Tables.switch spec)
       (Graph.hosts c.Testlib.graph)).switch_port
  in
  check_bool "host row loaded" true (FT.has_row t ~in_port:host_port);
  List.iter
    (fun (dst, _) -> FT.unset t ~in_port:host_port ~dst)
    (FT.rows_of t ~in_port:host_port);
  check_bool "host row gone" false (FT.has_row t ~in_port:host_port);
  check_bool "rows empty" true (FT.rows_of t ~in_port:host_port = [])

type ft_op =
  | Create
  | Load_constant
  | Load_spec of int
  | Set of int * int * FT.entry
  | Unset of int * int
  | Unset_row of int
  | Clear

let pp_op ppf = function
  | Create -> Format.fprintf ppf "create"
  | Load_constant -> Format.fprintf ppf "load_constant"
  | Load_spec i -> Format.fprintf ppf "load_spec %d" i
  | Set (p, a, e) ->
    Format.fprintf ppf "set %d 0x%04x %a%s" p a PV.pp e.FT.vector
      (if e.FT.broadcast then " bcast" else "")
  | Unset (p, a) -> Format.fprintf ppf "unset %d 0x%04x" p a
  | Unset_row p -> Format.fprintf ppf "unset_row %d" p
  | Clear -> Format.fprintf ppf "clear"

(* Random op sequences over the specs of a random topology: after every
   step the table and the model agree on every observable, for every key
   the specs, the one-hop rule or the overlay writes can produce. *)
let ft_matches_model =
  QCheck.Test.make ~name:"installed-spec table agrees with the hashtable model"
    ~count:60 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let c = Testlib.configure (Testlib.random_topology rng ~max_n:5) in
      let ports = Graph.max_ports c.Testlib.graph in
      let specs = Array.of_list c.Testlib.specs in
      let spec_addrs =
        Array.fold_left
          (fun acc spec ->
            Tables.fold spec ~init:acc ~f:(fun acc ~in_port:_ ~dst _ ->
                Short_address.to_int dst :: acc))
          [] specs
      in
      let addrs =
        ref
          (List.sort_uniq Int.compare
             (spec_addrs @ List.init (ports + 1) Fun.id @ [ 0xFFFC; 0xFFF0 ]))
      in
      let pick_addr () =
        if Rng.int rng 8 = 0 then Rng.int rng 0x10000
        else List.nth !addrs (Rng.int rng (List.length !addrs))
      in
      let random_op () =
        match Rng.int rng 20 with
        | 0 -> Create
        | 1 | 2 -> Load_constant
        | 3 | 4 | 5 -> Load_spec (Rng.int rng (Array.length specs))
        | 6 -> Clear
        | 7 | 8 | 9 | 10 | 11 | 12 ->
          let vector =
            PV.of_list (List.init (Rng.int rng 3) (fun _ -> Rng.int rng (ports + 1)))
          in
          Set (Rng.int rng (ports + 1), pick_addr (), { vector; broadcast = Rng.bool rng })
        | 13 -> Unset_row (Rng.int rng (ports + 1))
        | _ -> Unset (Rng.int rng (ports + 2), pick_addr ())
      in
      let t = ref (FT.create ~max_ports:ports)
      and m = ref (Model.create ~max_ports:ports) in
      let steps = ref [] in
      let fail fmt =
        QCheck.Test.fail_reportf
          ("seed %d after [%a]: " ^^ fmt) seed
          Format.(pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf "; ") pp_op)
          (List.rev !steps)
      in
      for _ = 1 to 25 do
        let op = random_op () in
        steps := op :: !steps;
        let g_t = FT.generation !t and g_m = Model.generation !m in
        (match op with
        | Create ->
          t := FT.create ~max_ports:ports;
          m := Model.create ~max_ports:ports
        | Load_constant -> FT.load_constant !t; Model.load_constant !m
        | Load_spec i ->
          FT.load_spec !t specs.(i);
          Model.load_spec !m specs.(i);
          Tables.iter specs.(i) ~f:(fun ~in_port ~dst e ->
              if FT.lookup !t ~in_port ~dst <> of_spec_entry e then
                fail "lookup %d %a differs from Tables.lookup" in_port
                  Short_address.pp dst)
        | Set (p, a, e) ->
          let dst = Short_address.of_int a in
          FT.set !t ~in_port:p ~dst e;
          Model.set !m ~in_port:p ~dst e;
          if not (List.mem a !addrs) then addrs := a :: !addrs
        | Unset (p, a) ->
          let dst = Short_address.of_int a in
          FT.unset !t ~in_port:p ~dst;
          Model.unset !m ~in_port:p ~dst
        | Unset_row p ->
          (* A host-port disable: every entry of the row goes. *)
          List.iter (fun (dst, _) -> FT.unset !t ~in_port:p ~dst) (FT.rows_of !t ~in_port:p);
          List.iter
            (fun (dst, _) -> Model.unset !m ~in_port:p ~dst)
            (Model.rows_of !m ~in_port:p)
        | Clear -> FT.clear !t; Model.clear !m);
        let bumped_t = FT.generation !t <> g_t
        and bumped_m = Model.generation !m <> g_m in
        if op <> Create && bumped_t <> bumped_m then fail "generation";
        if FT.entry_count !t <> Model.entry_count !m then
          fail "entry_count %d, model %d" (FT.entry_count !t)
            (Model.entry_count !m);
        for in_port = 0 to ports + 1 do
          if FT.has_row !t ~in_port <> Model.has_row !m ~in_port then
            fail "has_row %d" in_port;
          if FT.rows_of !t ~in_port <> Model.rows_of !m ~in_port then
            fail "rows_of %d" in_port;
          List.iter
            (fun a ->
              let dst = Short_address.of_int a in
              if FT.lookup !t ~in_port ~dst <> Model.lookup !m ~in_port ~dst
              then fail "lookup %d 0x%04x" in_port a)
            !addrs
        done
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_sched_alternative_lowest () =
  let s = Sch.create () in
  check_bool "accepted" true
    (Sch.request s ~in_port:1 ~vector:(PV.of_list [ 5; 3; 7 ]) ~broadcast:false);
  match Sch.round s ~free:(PV.of_list [ 3; 5; 7 ]) with
  | [ g ] ->
    check_int "in" 1 g.Sch.in_port;
    Alcotest.(check (list int)) "lowest" [ 3 ] (PV.to_list g.Sch.out_ports)
  | gs -> Alcotest.failf "expected one grant, got %d" (List.length gs)

let test_sched_head_of_line () =
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  check_bool "second refused" false
    (Sch.request s ~in_port:1 ~vector:(PV.singleton 6) ~broadcast:false);
  check_bool "has request" true (Sch.has_request s ~in_port:1)

let test_sched_fcfc_order () =
  (* Older request gets first claim on a contested port. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  ignore (Sch.request s ~in_port:2 ~vector:(PV.singleton 5) ~broadcast:false);
  (match Sch.round s ~free:(PV.singleton 5) with
  | [ g ] -> check_int "older wins" 1 g.Sch.in_port
  | _ -> Alcotest.fail "one grant expected");
  match Sch.round s ~free:(PV.singleton 5) with
  | [ g ] -> check_int "younger next" 2 g.Sch.in_port
  | _ -> Alcotest.fail "one grant expected"

let test_sched_queue_jumping () =
  (* A younger request whose port is free is served even while an older
     request waits for a busy port. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  ignore (Sch.request s ~in_port:2 ~vector:(PV.singleton 6) ~broadcast:false);
  match Sch.round s ~free:(PV.singleton 6) with
  | [ g ] ->
    check_int "younger jumped" 2 g.Sch.in_port;
    check_int "older still queued" 1 (Sch.pending s)
  | _ -> Alcotest.fail "one grant expected"

let test_sched_broadcast_accumulates () =
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.of_list [ 4; 5 ]) ~broadcast:true);
  (* First round: only port 4 free — captured, not granted. *)
  check_int "no grant yet" 0 (List.length (Sch.round s ~free:(PV.singleton 4)));
  check_int "still queued" 1 (Sch.pending s);
  (* Second round: port 5 frees; the broadcast completes. *)
  match Sch.round s ~free:(PV.singleton 5) with
  | [ g ] ->
    check_bool "broadcast grant" true g.Sch.broadcast;
    Alcotest.(check (list int)) "both ports" [ 4; 5 ] (PV.to_list g.Sch.out_ports)
  | _ -> Alcotest.fail "broadcast grant expected"

let test_sched_broadcast_reserves_from_younger () =
  (* Ports captured by a waiting broadcast are invisible to younger
     requests, preventing starvation (paper 6.4). *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.of_list [ 4; 5 ]) ~broadcast:true);
  ignore (Sch.round s ~free:(PV.singleton 4));
  (* Port 4 is now reserved by the broadcast. *)
  ignore (Sch.request s ~in_port:2 ~vector:(PV.singleton 4) ~broadcast:false);
  check_int "younger blocked" 0 (List.length (Sch.round s ~free:(PV.singleton 4)));
  (* Completing the broadcast releases it. *)
  ignore (Sch.round s ~free:(PV.singleton 5));
  match Sch.round s ~free:(PV.singleton 4) with
  | [ g ] -> check_int "younger served after" 2 g.Sch.in_port
  | _ -> Alcotest.fail "grant expected"

let test_sched_discard_entry_grants_empty () =
  (* The all-zeroes broadcast entry (discard) completes immediately. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:3 ~vector:PV.empty ~broadcast:true);
  match Sch.round s ~free:PV.empty with
  | [ g ] ->
    check_int "in port" 3 g.Sch.in_port;
    check_bool "no ports" true (PV.is_empty g.Sch.out_ports)
  | _ -> Alcotest.fail "discard grant expected"

let test_sched_cancel () =
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  Sch.cancel s ~in_port:1;
  check_int "cancelled" 0 (Sch.pending s);
  check_int "no grants" 0 (List.length (Sch.round s ~free:(PV.singleton 5)))

let test_sched_no_starvation_property () =
  (* Under adversarial younger traffic, an old broadcast request finishes
     once its ports have each been free at least once. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.of_list [ 2; 3; 4 ]) ~broadcast:true);
  let granted = ref false in
  (* Ports free one at a time, with younger unicast churn in between. *)
  List.iteri
    (fun i free ->
      ignore (Sch.request s ~in_port:(5 + (i mod 3)) ~vector:(PV.of_list [ 6; 7 ]) ~broadcast:false);
      List.iter
        (fun g -> if g.Sch.in_port = 1 then granted := true)
        (Sch.round s ~free))
    [ PV.of_list [ 2; 6 ]; PV.of_list [ 3; 7 ]; PV.of_list [ 6; 7 ]; PV.of_list [ 4 ] ];
  check_bool "broadcast eventually granted" true !granted

(* ------------------------------------------------------------------ *)
(* Crossbar *)

let test_xb_connect_release () =
  let x = XB.create ~max_ports:12 in
  XB.connect x ~in_port:1 ~out_ports:(PV.of_list [ 3; 4 ]);
  check_bool "source 3" true (XB.source_of x ~out_port:3 = Some 1);
  check_bool "source 4" true (XB.source_of x ~out_port:4 = Some 1);
  Alcotest.(check (list int)) "outputs" [ 3; 4 ] (PV.to_list (XB.outputs_of x ~in_port:1));
  XB.release_output x ~out_port:3;
  check_bool "released" true (XB.source_of x ~out_port:3 = None);
  Alcotest.(check (list int)) "one left" [ 4 ] (PV.to_list (XB.outputs_of x ~in_port:1))

let test_xb_busy_refused () =
  let x = XB.create ~max_ports:12 in
  XB.connect x ~in_port:1 ~out_ports:(PV.singleton 3);
  Alcotest.check_raises "busy" (Invalid_argument "Crossbar.connect: output 3 busy")
    (fun () -> XB.connect x ~in_port:2 ~out_ports:(PV.singleton 3))

let test_xb_free_outputs () =
  let x = XB.create ~max_ports:3 in
  XB.connect x ~in_port:1 ~out_ports:(PV.of_list [ 0; 2 ]);
  Alcotest.(check (list int)) "busy" [ 0; 2 ] (PV.to_list (XB.busy_outputs x));
  Alcotest.(check (list int)) "free" [ 1; 3 ] (PV.to_list (XB.free_outputs x))

let test_xb_release_input () =
  let x = XB.create ~max_ports:12 in
  XB.connect x ~in_port:1 ~out_ports:(PV.of_list [ 3; 4 ]);
  XB.connect x ~in_port:2 ~out_ports:(PV.singleton 5);
  XB.release_input x ~in_port:1;
  check_bool "both gone" true (PV.to_list (XB.busy_outputs x) = [ 5 ])

let () =
  Alcotest.run "switch"
    [ ( "port_vector",
        [ Alcotest.test_case "basics" `Quick test_pv_basics;
          Alcotest.test_case "set ops" `Quick test_pv_set_operations;
          Alcotest.test_case "bounds" `Quick test_pv_bounds;
          QCheck_alcotest.to_alcotest pv_qcheck ] );
      ( "forwarding_table",
        [ Alcotest.test_case "default discard" `Quick test_ft_default_discard;
          Alcotest.test_case "set/lookup" `Quick test_ft_set_lookup;
          Alcotest.test_case "one-hop constant" `Quick test_ft_one_hop_constant;
          Alcotest.test_case "generation" `Quick test_ft_generation_bumps;
          Alcotest.test_case "unset and rows" `Quick test_ft_unset_and_rows;
          Alcotest.test_case "spec load shares the spec" `Quick
            test_ft_spec_load_shares;
          Alcotest.test_case "tombstoned row is empty" `Quick
            test_ft_tombstoned_row_empty;
          QCheck_alcotest.to_alcotest ft_matches_model ] );
      ( "scheduler",
        [ Alcotest.test_case "alternative lowest" `Quick test_sched_alternative_lowest;
          Alcotest.test_case "head of line" `Quick test_sched_head_of_line;
          Alcotest.test_case "fcfc order" `Quick test_sched_fcfc_order;
          Alcotest.test_case "queue jumping" `Quick test_sched_queue_jumping;
          Alcotest.test_case "broadcast accumulates" `Quick
            test_sched_broadcast_accumulates;
          Alcotest.test_case "broadcast reserves" `Quick
            test_sched_broadcast_reserves_from_younger;
          Alcotest.test_case "discard grants empty" `Quick
            test_sched_discard_entry_grants_empty;
          Alcotest.test_case "cancel" `Quick test_sched_cancel;
          Alcotest.test_case "no starvation" `Quick test_sched_no_starvation_property ] );
      ( "crossbar",
        [ Alcotest.test_case "connect/release" `Quick test_xb_connect_release;
          Alcotest.test_case "busy refused" `Quick test_xb_busy_refused;
          Alcotest.test_case "free outputs" `Quick test_xb_free_outputs;
          Alcotest.test_case "release input" `Quick test_xb_release_input ] ) ]
