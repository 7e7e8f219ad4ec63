open Scs_composable

module Make (P : Scs_prims.Prims_intf.S) = struct
  module Sp = Splitter.Make (P)

  type 'v t = {
    s : Sp.t;
    v : 'v option P.reg;  (** tentative decision; [None] is ⊥ *)
    c : bool P.reg;  (** contention flag *)
  }

  let create ~name () =
    {
      s = Sp.create ~name:(name ^ ".S") ();
      v = P.reg ~name:(name ^ ".V") None;
      c = P.reg ~name:(name ^ ".C") false;
    }

  (* Algorithm 3, [propose]. Proposing [None] on a fresh, uncontended
     instance commits ⊥ and leaves the instance decidable.

     Deviation from the paper's pseudocode: the commit path that reads an
     already-decided [V] under [C = false] also resets the splitter. The
     paper resets only after a fresh write (line 12), under which a third
     sequential proposer finds the splitter consumed and aborts despite
     the absence of interval contention — contradicting the stated
     progress predicate. The extra reset is safe: [V] transitions
     ⊥ → [Some v] exactly once (a ⊥-proposal never overwrites a decided
     value), so any later splitter owner re-reads the same decision. *)
  let propose t ~pid (v : 'v option) =
    if Sp.split t.s ~pid = Splitter.Stop then begin
      match P.read t.v with
      | Some _ as cur ->
          if not (P.read t.c) then begin
            Sp.reset t.s;
            Outcome.Commit cur
          end
          else Outcome.Abort cur
      | None ->
          P.write t.v v;
          if not (P.read t.c) then begin
            Sp.reset t.s;
            Outcome.Commit v
          end
          else Outcome.Abort (P.read t.v)
    end
    else begin
      P.write t.c true;
      Outcome.Abort (P.read t.v)
    end

  let instance t = Consensus_intf.wrap ~name:"split" (fun ~pid v -> propose t ~pid v)
end
