open Scs_composable

module Make (P : Scs_prims.Prims_intf.S) = struct
  type 'v t = { c : 'v option P.cas_obj }

  let create ~name () = { c = P.cas_obj ~name:(name ^ ".CAS") None }

  (* Proposing ⊥ is a pure read: it never decides, so an undecided
     instance stays decidable (probe semantics). *)
  let propose t ~pid:_ = function
    | None -> Outcome.Commit (P.cas_read t.c)
    | Some _ as proposal ->
        let _ = P.compare_and_swap t.c ~expect:None ~update:proposal in
        Outcome.Commit (P.cas_read t.c)

  let instance t = Consensus_intf.wrap ~name:"cas" (fun ~pid v -> propose t ~pid v)
end
