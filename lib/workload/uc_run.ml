open Scs_util
open Scs_spec
open Scs_history
open Scs_sim
open Scs_consensus

type stage_kind = S_split | S_bakery | S_cas

let stage_name = function S_split -> "split" | S_bakery -> "bakery" | S_cas -> "cas"

type 'i uc_result = {
  responses : (int * 'i Request.t * int) list;
  outer : ('i, unit, unit) Trace.event array;
  commit_hists : (int * 'i History.t) list;
  stage_events : 'i Abstract_check.event list array;
  switch_lens : (int * int) list;
  final_stages : int array;
  sim : Sim.t;
}

let run ?(seed = 42) ?max_requests ?(crashes = []) ~n ~ops_per_proc ~stages ~policy
    ~gen_payload () =
  let rng = Rng.create seed in
  let sim = Sim.create ~max_steps:20_000_000 ~n () in
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module U = Scs_universal.Universal.Make (P) in
  let max_requests =
    match max_requests with Some m -> m | None -> (4 * n * ops_per_proc) + 8
  in
  let make_stage kind sname =
    let make_cons ~slot =
      let cname = Printf.sprintf "%s.cons%d" sname slot in
      match kind with
      | S_split ->
          let module SC = Split_consensus.Make (P) in
          SC.instance (SC.create ~name:cname ())
      | S_bakery ->
          let module AB = Abortable_bakery.Make (P) in
          AB.instance (AB.create ~name:cname ~n ())
      | S_cas ->
          let module CC = Cas_consensus.Make (P) in
          CC.instance (CC.create ~name:cname ())
    in
    let cons = Array.init max_requests (fun slot -> make_cons ~slot) in
    U.create ~name:sname ~n ~max_requests ~cons:(fun ~slot -> cons.(slot)) ()
  in
  let ucs =
    Array.of_list
      (List.mapi (fun i k -> make_stage k (Printf.sprintf "uc%d-%s" i (stage_name k))) stages)
  in
  let n_stages = Array.length ucs in
  (* Event recording: one global seq counter keeps per-stage event lists
     mutually ordered. *)
  let seq = ref 0 in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in
  let stage_events = Array.make n_stages [] in
  let push_stage s ev = stage_events.(s) <- ev :: stage_events.(s) in
  let outer = Trace.create ~clock:(fun () -> Sim.clock sim) () in
  let responses = ref [] in
  let commit_hists = ref [] in
  let switch_lens = ref [] in
  let final_stages = Array.make n 0 in
  let gen = Request.Gen.create () in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let stage = ref 0 in
        let handle = ref (U.handle ucs.(0) ~pid ~init:[]) in
        let fresh_on_stage = ref true in
        (* new handle not yet used: first invoke records an Init *)
        let init_hist = ref [] in
        for k = 1 to ops_per_proc do
          let payload = gen_payload ~pid ~k in
          let req = Request.Gen.fresh gen payload in
          Trace.invoke outer ~pid req;
          let s0 = Sim.steps_of sim pid in
          let rec go () =
            let s = !stage in
            if !fresh_on_stage && !init_hist <> [] then
              push_stage s
                (Abstract_check.Init { seq = next_seq (); pid; req; hist = !init_hist })
            else push_stage s (Abstract_check.Invoke { seq = next_seq (); pid; req });
            fresh_on_stage := false;
            match U.invoke !handle req with
            | Scs_universal.Universal.Committed ->
                let hist = U.performed !handle in
                push_stage s (Abstract_check.Commit { seq = next_seq (); pid; req; hist });
                commit_hists := (pid, hist) :: !commit_hists;
                Trace.commit outer ~pid req ()
            | Scs_universal.Universal.Aborted_with hist ->
                push_stage s (Abstract_check.Abort { seq = next_seq (); pid; req; hist });
                if s + 1 >= n_stages then failwith "Uc_run: final stage aborted"
                else begin
                  switch_lens := (pid, List.length hist) :: !switch_lens;
                  stage := s + 1;
                  handle := U.handle ucs.(s + 1) ~pid ~init:hist;
                  init_hist := hist;
                  fresh_on_stage := true;
                  go ()
                end
          in
          go ();
          responses := (pid, req, Sim.steps_of sim pid - s0) :: !responses
        done;
        final_stages.(pid) <- !stage)
  done;
  Sim.run ~crashes:(Crash.of_pairs crashes) sim (policy (Rng.split rng));
  {
    responses = List.rev !responses;
    outer = Trace.events outer;
    commit_hists = List.rev !commit_hists;
    stage_events = Array.map List.rev stage_events;
    switch_lens = List.rev !switch_lens;
    final_stages;
    sim;
  }

let check_responses spec result =
  (* Commit histories must be totally prefix-ordered (within and across
     stages: later stages extend earlier abort histories, which extend all
     commits), and every response they encode must be consistent under the
     sequential spec. *)
  let hists = List.map snd result.commit_hists in
  let rec pairs = function
    | [] -> Ok ()
    | h :: rest ->
        if List.for_all (fun h' -> History.is_prefix h h' || History.is_prefix h' h) rest then
          pairs rest
        else Error "commit histories are not prefix-ordered"
  in
  match pairs hists with
  | Error _ as e -> e
  | Ok () ->
      if
        List.for_all
          (fun h ->
            History.no_dups h
            &&
            let _, resps = History.run spec h in
            List.length resps = List.length h)
          hists
      then Ok ()
      else Error "a commit history has duplicates or fails to replay"
