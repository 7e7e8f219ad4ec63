open Scs_composable

module Make (P : Scs_prims.Prims_intf.S) = struct
  let make ?(on_handoff = fun ~pid:_ ~stage:_ -> ()) ~name instances =
    if instances = [] then invalid_arg "Chain.make: empty instance list";
    let stages = Array.of_list instances in
    let k_stages = Array.length stages in
    let moved =
      Array.init k_stages (fun k -> P.reg ~name:(name ^ ".moved[" ^ string_of_int k ^ "]") false)
    in
    (* Leave stage [k]: raise the flag first, then probe, so that any
       stage-[k] committer that returns after our probe is forced to see
       the flag and downgrade. *)
    let leave ~pid k =
      P.write moved.(k) true;
      Consensus_intf.probe stages.(k) ~pid
    in
    let run ~pid ~old v =
      let rec go k old =
        if k >= k_stages then Outcome.Abort old
        else begin
          match stages.(k).Consensus_intf.run ~pid ~old v with
          | Outcome.Commit (Some d) ->
              if P.read moved.(k) then
                (* someone may have probed before our decision landed:
                   carry d forward instead of returning it *)
                go (k + 1) (Some d)
              else Outcome.Commit (Some d)
          | Outcome.Commit None ->
              (* only possible when v itself went unproposed (probe-like
                 call); treat as an undecided pass-through *)
              if P.read moved.(k) then go (k + 1) old else Outcome.Commit None
          | Outcome.Abort _ ->
              on_handoff ~pid ~stage:k;
              let est = leave ~pid k in
              let inherited = match est with Some _ -> est | None -> old in
              go (k + 1) inherited
        end
      in
      go 0 old
    in
    (* Probing consults stages in reverse: a decision at stage [k+1] is
       authoritative over a "ghost" decision at stage [k] that every
       committer downgraded (each such committer carried its value
       forward, but stage [k+1] may have decided differently). *)
    let propose_raw ~pid = function
      | None ->
          let rec probe_stages k =
            if k < 0 then Outcome.Commit None
            else begin
              match Consensus_intf.probe stages.(k) ~pid with
              | Some _ as v -> Outcome.Commit v
              | None -> probe_stages (k - 1)
            end
          in
          probe_stages (k_stages - 1)
      | Some v -> run ~pid ~old:None v
    in
    { Consensus_intf.name = "chain"; propose_raw; run }
end
