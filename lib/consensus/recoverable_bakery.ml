open Scs_composable

type 'v phase = P_idle | P_run of 'v option

module Make (P : Scs_prims.Prims_intf.S) = struct
  type nonrec 'v phase = 'v phase = P_idle | P_run of 'v option

  (* The base AbortableBakery state is durable: the arrays [(Ai)]/[(Bi)]
     are the algorithm's announcement record (losing an announcement
     while its clean checks may still pass breaks agreement — see the
     deliberately unsound [~volatile_announce:true] variant), [Quit]
     only forces aborts, and [Dec] moves ⊥ → [Some v] once.

     [hint.(pid)] is the one legitimately volatile piece: a per-process
     cache of "this instance is decided". It is only ever used to
     short-circuit into a durable [Dec] read — a wiped (or stale-empty)
     hint merely sends the proposer down the slow path, and a set hint
     commits only what [Dec] itself says — so the cache can never
     manufacture a decision the durable state does not hold. *)
  type 'v t = {
    a : (int * 'v option) option P.reg array;
    b : (int * 'v option) option P.reg array;
    quit : bool P.reg;
    dec : 'v option P.reg;
    phase : 'v phase P.reg array;
    hint : bool P.reg array;  (** volatile decided-hint, one per process *)
  }

  let create ~name ?(volatile_announce = false) ~n () =
    let announce_reg = if volatile_announce then P.volatile_reg else P.reg in
    {
      a =
        Array.init n (fun i ->
            announce_reg ~name:(name ^ ".A[" ^ string_of_int i ^ "]") None);
      b = Array.init n (fun i -> P.reg ~name:(name ^ ".B[" ^ string_of_int i ^ "]") None);
      quit = P.reg ~name:(name ^ ".Quit") false;
      dec = P.reg ~name:(name ^ ".Dec") None;
      phase =
        Array.init n (fun i -> P.reg ~name:(name ^ ".Ph[" ^ string_of_int i ^ "]") P_idle);
      hint =
        Array.init n (fun i ->
            P.volatile_reg ~name:(name ^ ".H[" ^ string_of_int i ^ "]") false);
    }

  let collect arr = Array.to_list (Array.map P.read arr)

  let entries collected =
    List.filter_map (function Some (k, Some v) -> Some (k, v) | _ -> None) collected

  let minimal_k collected =
    match entries collected with
    | [] -> 0
    | es ->
        let kmax = List.fold_left (fun m (k, _) -> max m k) 0 es in
        let at_kmax = List.filter_map (fun (k, v) -> if k = kmax then Some v else None) es in
        let conflict =
          match at_kmax with [] -> false | v :: rest -> List.exists (fun u -> u <> v) rest
        in
        if conflict then kmax + 1 else kmax

  let clean_at collected ~k ~v =
    List.for_all (fun (k', v') -> k' < k || (k' = k && Some v' = v)) (entries collected)

  (* Algorithm 4 with a durable write-ahead phase and the volatile
     decided-hint fast path. The slow path is the base algorithm
     verbatim; on a real decision it arms the caller's hint. *)
  let propose t ~pid (input : 'v option) =
    P.write t.phase.(pid) (P_run input);
    let result =
      if P.read t.hint.(pid) then
        (* hint says decided: commit whatever the durable [Dec] holds —
           never the hint's own (wiped-away-able) knowledge *)
        match P.read t.dec with
        | Some _ as d -> Outcome.Commit d
        | None -> Outcome.Abort None (* unreachable: hints are armed after Dec *)
      else begin
        let va = collect t.a in
        let ki = minimal_k va in
        let vi =
          match
            List.find_map (fun (k, v) -> if k = ki then Some v else None) (entries va)
          with
          | Some v -> Some v
          | None -> (
              match entries (collect t.b) with
              | [] -> input
              | (k0, v0) :: rest ->
                  let _, v =
                    List.fold_left
                      (fun (km, vm) (k, v) -> if k > km then (k, v) else (km, vm))
                      (k0, v0) rest
                  in
                  Some v)
        in
        P.write t.a.(pid) (Some (ki, vi));
        let ok1 = clean_at (collect t.a) ~k:ki ~v:vi in
        let committed =
          ok1
          && begin
               P.write t.b.(pid) (Some (ki, vi));
               clean_at (collect t.a) ~k:ki ~v:vi && not (P.read t.quit)
             end
        in
        if committed then begin
          (match vi with
          | Some _ ->
              P.write t.dec vi;
              P.write t.hint.(pid) true
          | None -> ());
          Outcome.Commit vi
        end
        else begin
          P.write t.quit true;
          Outcome.Abort (P.read t.dec)
        end
      end
    in
    P.write t.phase.(pid) P_idle;
    result

  (* Recovery aborts the interrupted proposal: raising [Quit] only
     forces aborts (always agreement-safe), and the durable [(Ai)]/[(Bi)]
     entries the crashed attempt already published stay visible, so any
     value it may have helped impose is still adoptable. Idempotent —
     both writes redo themselves under a crash-during-recovery. *)
  let recover t ~pid =
    match P.read t.phase.(pid) with
    | P_idle -> None
    | P_run _ ->
        P.write t.quit true;
        P.write t.phase.(pid) P_idle;
        Some (Outcome.Abort (P.read t.dec))

  let decision t = P.read t.dec
  let instance t = Consensus_intf.wrap ~name:"recoverable-bakery" (fun ~pid v -> propose t ~pid v)
end
