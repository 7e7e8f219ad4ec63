open Scs_composable

type 'v phase = P_idle | P_run of 'v option | P_won of 'v option

module Make (P : Scs_prims.Prims_intf.S) = struct
  type nonrec 'v phase = 'v phase = P_idle | P_run of 'v option | P_won of 'v option

  (* The splitter is inlined rather than reused from {!Splitter} so that
     its door [X] can be volatile: [X] only ever *denies* a Stop after a
     wipe (a read can return [None] or a later writer, never the stale
     [Some pid] a Stop needs), so crashes lose at most liveness there.
     [Y] must be durable — forgetting that the door was consumed would
     let a second process Stop in the same era. *)
  type 'v t = {
    x : int option P.reg;  (** volatile splitter door *)
    y : bool P.reg;  (** durable splitter latch *)
    v : 'v option P.reg;  (** durable tentative decision; [None] is ⊥ *)
    c : bool P.reg;  (** durable contention flag *)
    phase : 'v phase P.reg array;  (** durable per-process recovery phase *)
  }

  let create ~name ~n () =
    {
      x = P.volatile_reg ~name:(name ^ ".X") None;
      y = P.reg ~name:(name ^ ".Y") false;
      v = P.reg ~name:(name ^ ".V") None;
      c = P.reg ~name:(name ^ ".C") false;
      phase =
        Array.init n (fun i -> P.reg ~name:(name ^ ".Ph[" ^ string_of_int i ^ "]") P_idle);
    }

  let split t ~pid =
    P.write t.x (Some pid);
    if P.read t.y then Splitter.Right
    else begin
      P.write t.y true;
      if P.read t.x = Some pid then Splitter.Stop else Splitter.Left
    end

  let reset_splitter t =
    P.write t.x None;
    P.write t.y false

  (* Algorithm 3 with a durable write-ahead phase: [Ph[pid] := P_run v]
     before touching shared state, [P_won v] before the decision write,
     [P_idle] after the response escapes. A crash therefore always finds
     the phase describing exactly what [recover] must redo. *)
  let propose t ~pid (v : 'v option) =
    P.write t.phase.(pid) (P_run v);
    let result =
      if split t ~pid = Splitter.Stop then begin
        match P.read t.v with
        | Some _ as cur ->
            if not (P.read t.c) then begin
              reset_splitter t;
              Outcome.Commit cur
            end
            else Outcome.Abort cur
        | None ->
            P.write t.phase.(pid) (P_won v);
            P.write t.v v;
            if not (P.read t.c) then begin
              reset_splitter t;
              Outcome.Commit v
            end
            else Outcome.Abort (P.read t.v)
      end
      else begin
        P.write t.c true;
        Outcome.Abort (P.read t.v)
      end
    in
    P.write t.phase.(pid) P_idle;
    result

  (* Idempotent recovery: every step either re-reads durable state or
     re-writes the value it already wrote, so crashing *during* recovery
     and recovering again converges to the same outcome.

     - [P_idle]: no operation was in flight; nothing to do.
     - [P_run _]: the crash interrupted an undistinguished proposal.
       Raising [C] declares the crash as contention (only ever making
       others abort — always safe), and the operation aborts with the
       current tentative decision as its switch value.
     - [P_won v]: the process had won the splitter and committed to
       deciding [v], so the decision write is re-executed. No other
       process can have decided differently in between: [Y] is durable,
       so while the winner was down every split returns Right and the
       splitter is only reset once a decision exists. *)
  let recover t ~pid =
    match P.read t.phase.(pid) with
    | P_idle -> None
    | P_run _ ->
        P.write t.c true;
        P.write t.phase.(pid) P_idle;
        Some (Outcome.Abort (P.read t.v))
    | P_won v ->
        (match P.read t.v with Some _ -> () | None -> P.write t.v v);
        let out =
          if not (P.read t.c) then begin
            reset_splitter t;
            Outcome.Commit (P.read t.v)
          end
          else Outcome.Abort (P.read t.v)
        in
        P.write t.phase.(pid) P_idle;
        Some out

  let decision t = P.read t.v
  let instance t = Consensus_intf.wrap ~name:"recoverable-split" (fun ~pid v -> propose t ~pid v)
end
