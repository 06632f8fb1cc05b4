(** The hardware forwarding table of one switch (paper section 6.3).

    Indexed by the receiving port number concatenated with the destination
    short address; each entry is a port vector plus a broadcast flag.  A
    missing entry behaves as the all-zeroes broadcast entry: discard.

    The table supports the two loading regimes of a reconfiguration: at
    step 1 every switch reloads only the constant one-hop entries (so
    reconfiguration packets can still travel between neighbours and to the
    control processor), and at step 5 it loads the complete table computed
    from the topology.  As in the real switch, a (re)load resets the
    data path — the dataplane simulator destroys in-flight packets when it
    happens, reproducing the cost discussed in section 7.

    Representation: the table is the last load plus an overlay plus a
    generation.  A load installs, it does not copy: {!load_spec} keeps a
    pointer to the immutable {!Autonet_core.Tables.spec} it is given and
    {!load_constant} switches on the one-hop rule, so every load is O(1)
    whatever the table's size.  The writes made after a load ({!set} and
    {!unset}, from host-port enable and disable) go to a small per-in-port
    overlay, with a tombstone where an unset hides a loaded entry.
    {!lookup} reads the overlay, then the spec, then the one-hop rule:
    the precedence of a hardware load that writes the one-hop entries
    first and the computed table over them. *)

open Autonet_net

type entry = { vector : Port_vector.t; broadcast : bool }

val discard_entry : entry

type t

val create : max_ports:int -> t

val max_ports : t -> int

val generation : t -> int
(** Bumped by every {!clear}, {!load_constant} and {!load_spec}; the
    dataplane watches it to detect resets. *)

val set : t -> in_port:int -> dst:Short_address.t -> entry -> unit

val lookup : t -> in_port:int -> dst:Short_address.t -> entry

val unset : t -> in_port:int -> dst:Short_address.t -> unit
(** Remove one entry (it reverts to discard). *)

val has_row : t -> in_port:int -> bool
(** Whether any entry exists for this receiving port. *)

val rows_of : t -> in_port:int -> (Short_address.t * entry) list
(** All entries for one receiving port, ascending by address.  Like
    {!has_row}, it walks that row only. *)

val clear : t -> unit
(** Empty the table completely (everything discards). *)

val load_constant : t -> unit
(** Clear, then install only the constant one-hop entries: address [k]
    (1..max_ports) from port 0 goes out port [k]; from any other port it
    goes to the control processor. *)

val load_spec : t -> Autonet_core.Tables.spec -> unit
(** Clear, then install the computed table over the constant one-hop
    entries.  The table keeps the spec itself; it never mutates it. *)

val entry_count : t -> int
(** Number of keys holding an entry (a {!set} entry counts even when it
    reads as discard). *)

val to_spec : t -> switch:Autonet_core.Graph.switch -> Autonet_core.Tables.spec
(** The table's current content as a fresh spec owned by [switch]:
    the installed spec with the one-hop entries it leaves empty and the
    overlay applied.  Entries whose vector is empty are left out, as a
    missing entry already discards. *)
