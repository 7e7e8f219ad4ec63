open Scs_spec

module Make (P : Scs_prims.Prims_intf.S) = struct
  module Hardware = struct
    type t = { t : P.tas_obj }

    let create ~name () = { t = P.tas_obj ~name:(name ^ ".T") () }

    let test_and_set t ~pid:_ =
      if P.test_and_set t.t then Objects.Winner else Objects.Loser

    let reset t = P.tas_reset t.t
    let read t = P.tas_read t.t
  end

  module Tournament = struct
    module Cil = Scs_consensus.Cil_consensus.Make (P)

    (* A doorway register in front of a tournament tree. A process that
       finds the door closed loses at once; otherwise it closes the door
       and climbs. Without the doorway the tree alone is not
       linearizable: a process can lose at a node and return before the
       eventual winner is even invoked.

       One consensus node per internal tree node, indexed heap-style:
       node 1 is the root, node [k]'s children are [2k] and [2k+1].
       Leaves are [leaves + pid]. A process climbs from its leaf; at each
       node it plays the side it arrived from (0 = left child, 1 = right).
       At most one process arrives per side (subtree winners are unique),
       so two-process consensus per node suffices. *)
    type t = { door : bool P.reg; nodes : int Cil.t array; leaves : int }

    let create ~name ~n () =
      let rec pow2 k = if k >= n then k else pow2 (2 * k) in
      let leaves = pow2 1 in
      let door = P.reg ~name:(name ^ ".door") false in
      {
        door;
        nodes =
          Array.init leaves (fun i ->
              Cil.create ~name:(Printf.sprintf "%s.node[%d]" name i) ());
        leaves;
      }

    let test_and_set t ~pid ~rng =
      if pid < 0 || pid >= t.leaves then invalid_arg "Tournament.test_and_set: pid out of range";
      let rec climb node =
        if node <= 1 then Objects.Winner
        else begin
          let parent = node / 2 in
          let side = node land 1 in
          let decided = Cil.propose t.nodes.(parent) ~pid:side ~rng side in
          if decided = side then climb parent else Objects.Loser
        end
      in
      if P.read t.door then Objects.Loser
      else begin
        P.write t.door true;
        climb (t.leaves + pid)
      end
    end
end
