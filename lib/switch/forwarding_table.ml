open Autonet_net
module Tables = Autonet_core.Tables

type entry = { vector : Port_vector.t; broadcast : bool }

let discard_entry = { vector = Port_vector.empty; broadcast = true }

(* What the last load installed.  A load never copies entries: the
   one-hop constant entries are a rule, and [load_spec] keeps a pointer
   to the spec the reconfiguration computed (which nobody mutates). *)
type base =
  | Empty  (* after [create] or [clear]: everything discards *)
  | One_hop  (* after [load_constant] *)
  | Spec of Tables.spec  (* after [load_spec]: the spec over the one-hop rule *)

(* A post-load write: an entry, or a tombstone hiding a base entry.  A
   tombstone only ever sits on a key the base holds. *)
type cell = Set of entry | Unset

module Row = Map.Make (Int)

type t = {
  ports : int;
  mutable base : base;
  overlay : cell Row.t array;  (* indexed by receiving port, 0..ports *)
  mutable delta : int;  (* entries the overlay adds, net of its tombstones *)
  mutable gen : int;
}

let create ~max_ports =
  { ports = max_ports;
    base = Empty;
    overlay = Array.make (max_ports + 1) Row.empty;
    delta = 0;
    gen = 0 }

let max_ports t = t.ports

let generation t = t.gen

let in_range t in_port = in_port >= 0 && in_port <= t.ports

(* --- The base: the one-hop rule under the installed spec. --- *)

let singletons =
  Array.init (Port_vector.max_port + 1) (fun p ->
      { vector = Port_vector.singleton p; broadcast = false })

(* Address [k] (1..ports) from port 0 goes out port [k]; from any other
   port it goes to the control processor. *)
let one_hop_entry ~in_port k = singletons.(if in_port = 0 then k else 0)

let is_one_hop t a = a >= 1 && a <= t.ports

let spec_mem s ~in_port a =
  (Tables.lookup s ~in_port ~dst:(Short_address.of_int a)).Tables.ports <> []

let of_spec_entry (e : Tables.entry) =
  { vector = Port_vector.of_list e.Tables.ports; broadcast = e.Tables.broadcast }

let to_spec_entry e =
  { Tables.broadcast = e.broadcast; ports = Port_vector.to_list e.vector }

(* The spec's entry wins over the one-hop rule, as when the hardware load
   wrote the one-hop entries first and the computed table over them. *)
let base_lookup t ~in_port a =
  match t.base with
  | Empty -> discard_entry
  | One_hop -> if is_one_hop t a then one_hop_entry ~in_port a else discard_entry
  | Spec s ->
    let e = Tables.lookup s ~in_port ~dst:(Short_address.of_int a) in
    if e.Tables.ports <> [] then of_spec_entry e
    else if is_one_hop t a then one_hop_entry ~in_port a
    else discard_entry

let base_mem t ~in_port a =
  match t.base with
  | Empty -> false
  | One_hop -> is_one_hop t a
  | Spec s -> is_one_hop t a || spec_mem s ~in_port a

(* The base entries of one row, ascending by address: the spec's row
   merged with the one-hop addresses it leaves empty. *)
let iter_base_row t ~in_port f =
  match t.base with
  | Empty -> ()
  | One_hop -> for k = 1 to t.ports do f k (one_hop_entry ~in_port k) done
  | Spec s ->
    let next = ref 1 in
    let one_hops_below a =
      while !next <= t.ports && !next < a do
        if not (spec_mem s ~in_port !next) then
          f !next (one_hop_entry ~in_port !next);
        incr next
      done
    in
    Tables.iter_row s ~in_port ~f:(fun dst e ->
        let a = Short_address.to_int dst in
        one_hops_below a;
        f a (of_spec_entry e));
    one_hops_below max_int

let base_count t =
  match t.base with
  | Empty -> 0
  | One_hop -> t.ports * (t.ports + 1)
  | Spec s ->
    let n = ref (Tables.entry_count s) in
    for in_port = 0 to t.ports do
      for k = 1 to t.ports do
        if not (spec_mem s ~in_port k) then incr n
      done
    done;
    !n

(* --- The overlay over it. --- *)

let mem_in t ~in_port row a =
  match Row.find_opt a row with
  | Some (Set _) -> true
  | Some Unset -> false
  | None -> base_mem t ~in_port a

let set t ~in_port ~dst entry =
  if not (in_range t in_port) then
    invalid_arg "Forwarding_table.set: in_port out of range";
  let a = Short_address.to_int dst and row = t.overlay.(in_port) in
  if not (mem_in t ~in_port row a) then t.delta <- t.delta + 1;
  t.overlay.(in_port) <- Row.add a (Set entry) row

let lookup t ~in_port ~dst =
  if not (in_range t in_port) then discard_entry
  else
    let a = Short_address.to_int dst in
    match Row.find_opt a t.overlay.(in_port) with
    | Some (Set e) -> e
    | Some Unset -> discard_entry
    | None -> base_lookup t ~in_port a

let unset t ~in_port ~dst =
  if in_range t in_port then begin
    let a = Short_address.to_int dst and row = t.overlay.(in_port) in
    if mem_in t ~in_port row a then t.delta <- t.delta - 1;
    t.overlay.(in_port) <-
      (if base_mem t ~in_port a then Row.add a Unset row else Row.remove a row)
  end

exception Found

let has_row t ~in_port =
  in_range t in_port
  &&
  let row = t.overlay.(in_port) in
  Row.exists (fun _ c -> match c with Set _ -> true | Unset -> false) row
  ||
  (* Every tombstone hides one base entry of this row, so the row is
     non-empty iff the base row holds more entries than the tombstones. *)
  let hidden = Row.cardinal row in
  let seen = ref 0 in
  match
    iter_base_row t ~in_port (fun _ _ ->
        incr seen;
        if !seen > hidden then raise_notrace Found)
  with
  | () -> false
  | exception Found -> true

let rows_of t ~in_port =
  if not (in_range t in_port) then []
  else begin
    let acc = ref [] in
    let pending = ref (Row.to_seq t.overlay.(in_port)) in
    (* Emit the overlay's entries below [a]; return its cell at [a]. *)
    let rec overlay_upto a =
      match !pending () with
      | Seq.Cons ((b, c), rest) when b <= a ->
        pending := rest;
        if b = a then Some c
        else begin
          (match c with Set e -> acc := (b, e) :: !acc | Unset -> ());
          overlay_upto a
        end
      | Seq.Cons _ | Seq.Nil -> None
    in
    iter_base_row t ~in_port (fun a e ->
        match overlay_upto a with
        | Some (Set e') -> acc := (a, e') :: !acc
        | Some Unset -> ()
        | None -> acc := (a, e) :: !acc);
    ignore (overlay_upto max_int);
    List.rev_map (fun (a, e) -> (Short_address.of_int a, e)) !acc
  end

(* --- Loads. --- *)

let install t base =
  t.base <- base;
  Array.fill t.overlay 0 (Array.length t.overlay) Row.empty;
  t.delta <- 0;
  t.gen <- t.gen + 1

let clear t = install t Empty

let load_constant t = install t One_hop

let load_spec t spec = install t (Spec spec)

let entry_count t = base_count t + t.delta

let empty_spec = Tables.of_entries ~switch:0 []

let to_spec t ~switch =
  let spec, one_hop =
    match t.base with
    | Empty -> (empty_spec, false)
    | One_hop -> (empty_spec, true)
    | Spec s -> (s, true)
  in
  let edits = ref [] in
  (* Overlay edits go after the one-hop fill-ins, so they land on top. *)
  for in_port = t.ports downto 0 do
    Row.iter
      (fun a c ->
        let edit = match c with Set e -> Some (to_spec_entry e) | Unset -> None in
        edits := ((in_port, Short_address.of_int a), edit) :: !edits)
      t.overlay.(in_port)
  done;
  if one_hop then
    for in_port = t.ports downto 0 do
      for k = t.ports downto 1 do
        if not (spec_mem spec ~in_port k) then
          edits :=
            ( (in_port, Short_address.one_hop ~port:k),
              Some (to_spec_entry (one_hop_entry ~in_port k)) )
            :: !edits
      done
    done;
  Tables.amend spec ~switch !edits
