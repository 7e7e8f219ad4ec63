open Scs_composable

module Make (P : Scs_prims.Prims_intf.S) = struct
  (* Array slots hold (timestamp, value) pairs; [None] is the initial ⊥.
     The proposed values are themselves options ('v option), so that the
     wrapper can run the ⊥ phase of [init]. *)
  type 'v t = {
    a : (int * 'v option) option P.reg array;
    b : (int * 'v option) option P.reg array;
    quit : bool P.reg;
    dec : 'v option P.reg;
  }

  let create ~name ~n () =
    {
      a = Array.init n (fun i -> P.reg ~name:(name ^ ".A[" ^ string_of_int i ^ "]") None);
      b = Array.init n (fun i -> P.reg ~name:(name ^ ".B[" ^ string_of_int i ^ "]") None);
      quit = P.reg ~name:(name ^ ".Quit") false;
      dec = P.reg ~name:(name ^ ".Dec") None;
    }

  let collect arr = Array.to_list (Array.map P.read arr)

  (* ⊥-valued entries — written by the wrapper's initial ⊥ phase — are
     invisible everywhere: they are not decisions, must not be adopted,
     and must not fail the cleanliness checks (a crashed process's ⊥
     entry would otherwise poison the instance and break obstruction-free
     progress). *)
  let entries collected =
    List.filter_map (function Some (k, Some v) -> Some (k, v) | _ -> None) collected

  (* The minimal k such that the collect contains no timestamp above k and
     no two distinct values at k: the maximal timestamp if all its values
     agree, one above it otherwise, and 0 on an empty collect. *)
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

  (* Algorithm 4, [propose]. Adoption skips ⊥-valued entries (written by
     the wrapper's ⊥ phase): adopting ⊥ would let the instance decide ⊥
     forever and starve the real second-phase proposal. *)
  let propose t ~pid (input : 'v option) =
    let va = collect t.a in
    let ki = minimal_k va in
    let vi =
      match List.find_map (fun (k, v) -> if k = ki then Some v else None) (entries va) with
      | Some v -> Some v
      | None -> (
          match entries (collect t.b) with
          | [] -> input
          | (k0, v0) :: rest ->
              let _, v =
                List.fold_left (fun (km, vm) (k, v) -> if k > km then (k, v) else (km, vm))
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
      (* a ⊥-phase commit is not a decision: writing [Dec := None] here
         could clobber a real decision that landed concurrently, and the
         chain's leave-probe reads [Dec] to learn exactly that decision
         (found by schedule fuzzing: sticky policy, n = 3). Mirror
         Split_consensus: [Dec] moves ⊥ → [Some v] only. *)
      (match vi with Some _ -> P.write t.dec vi | None -> ());
      Outcome.Commit vi
    end
    else begin
      P.write t.quit true;
      Outcome.Abort (P.read t.dec)
    end

  let instance t = Consensus_intf.wrap ~name:"bakery" (fun ~pid v -> propose t ~pid v)
end
