
type outcome = {
  schedules : int;
  truncated : bool;
  truncated_runs : int;
  pruned : int;
  steps_replayed : int;
  wall_s : float;
}

exception Replay_drift = Policy.Replay_drift

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr c
  done;
  !c

(* lowest set bit index of a non-zero mask *)
let lsb m =
  let i = ref 0 and m = ref m in
  while !m land 1 = 0 do
    m := !m lsr 1;
    incr i
  done;
  !i

(* Per-engine mutable state. One [ctx] per worker domain; [run_count] is
   the only piece shared between workers: the global budget over
   terminated runs, maximal and depth-truncated alike (a budget over
   maximal runs only would let a deep, mostly-truncating space consume
   unbounded work without ever touching the budget). *)
type ctx = {
  n : int;
  obs : Scs_obs.Obs.t;
  setup : Sim.t -> unit;
  check : Sim.t -> Sim.pid list -> unit;
  por : bool;
  max_depth : int;
  max_schedules : int;
  run_count : int Atomic.t;
  mutable schedules : int;  (** maximal runs checked by this worker *)
  mutable base_objs : int;  (** objects allocated by [setup]; POR guard *)
  mutable steps : int;
  mutable pruned : int;
  mutable truncated_runs : int;
  mutable truncated : bool;
  mutable stop : bool;
  mutable cached : Sim.t option;  (** the worker's pooled simulator *)
}

let mk_ctx ~n ~obs ~setup ~check ~por ~max_depth ~max_schedules ~run_count =
  {
    n;
    obs;
    setup;
    check;
    por;
    max_depth;
    max_schedules;
    run_count;
    schedules = 0;
    base_objs = 0;
    steps = 0;
    pruned = 0;
    truncated_runs = 0;
    truncated = false;
    stop = false;
    cached = None;
  }

(* Charge one terminated run against the global budget; [true] iff the
   budget is exhausted (callers flag truncation and stop). *)
let budget_spent ctx =
  let c = Atomic.fetch_and_add ctx.run_count 1 in
  c >= ctx.max_schedules

(* Rewind the worker's pooled simulator and re-run [setup] — a fresh
   start without reallocating arenas. Safe because the DFS only ever
   advances the newest simulator: by the time a backtrack replays, no
   frame touches the previous instance again. *)
let fresh_sim ctx =
  let sim =
    match ctx.cached with
    | Some s ->
        Sim.clear s;
        s
    | None ->
        let s = Sim.create ~obs:ctx.obs ~n:ctx.n () in
        ctx.cached <- Some s;
        s
  in
  ctx.setup sim;
  ctx.base_objs <- Sim.objects_allocated sim;
  sim

let step ctx sim p =
  Sim.step sim p;
  ctx.steps <- ctx.steps + 1;
  if ctx.por && Sim.objects_allocated sim <> ctx.base_objs then
    invalid_arg
      "Explore.exhaustive: ~por:true requires all shared objects to be \
       allocated during setup (a fiber allocated one mid-run, so step \
       footprints no longer capture all shared effects)"

(* Rebuild the simulator state after [prefix] (pids in execution order).
   Unlike the seed implementation this refuses to skip a pid that is not
   runnable: a silently dropped step would mean the recorded schedule has
   drifted from what was actually executed. *)
let replay ctx prefix =
  let sim = fresh_sim ctx in
  List.iter
    (fun p ->
      if not (Sim.is_runnable sim p) then raise (Replay_drift p);
      step ctx sim p)
    prefix;
  sim

let leaf ctx sim rev_prefix =
  if budget_spent ctx then begin
    ctx.truncated <- true;
    ctx.stop <- true
  end
  else begin
    ctx.schedules <- ctx.schedules + 1;
    ctx.check sim (List.rev rev_prefix)
  end

(* Packed footprint codes ({!Sim.footprint_code}) for every enabled pid
   at the current node; -1 (Local, commutes with everything) elsewhere.
   One small array per node — it must survive the recursion into earlier
   children, so it cannot live in a per-ctx scratch buffer. *)
let node_codes ctx sim enabled =
  Array.init ctx.n (fun p ->
      if enabled land (1 lsl p) <> 0 then Sim.footprint_code sim p else -1)

(* Single-replay DFS with sleep sets.

   The recursion owns a live simulator positioned at the current node. The
   first child is explored by stepping the live simulator forward (no
   replay); each later sibling replays the prefix once — into the same
   pooled simulator, rewound with [Sim.clear]. A maximal schedule
   therefore costs O(depth) simulator turns instead of the seed's O(depth)
   replays per node (O(depth^2) turns per schedule), and zero simulator
   allocations after the first.

   [sleep] is the sleep set of the node as a pid bitmask: pids whose next
   turn has already been explored from an equivalent state along a sibling
   branch. When [ctx.por] is set, enabled-but-sleeping pids are pruned; a
   child's sleep set keeps exactly the sleepers (plus earlier siblings)
   whose pending turn commutes with the branching turn
   ({!Sim.codes_commute} on packed footprint codes — no allocation). *)
let rec dfs ctx sim rev_prefix depth sleep =
  if not ctx.stop then begin
    let enabled = Sim.runnable_bits sim in
    if enabled = 0 then leaf ctx sim rev_prefix
    else if depth >= ctx.max_depth then begin
      ctx.truncated_runs <- ctx.truncated_runs + 1;
      ctx.truncated <- true;
      if budget_spent ctx then ctx.stop <- true
    end
    else begin
      let sleeping = if ctx.por then enabled land sleep else 0 in
      let candidates = enabled land lnot sleeping in
      ctx.pruned <- ctx.pruned + popcount sleeping;
      let codes = if ctx.por then node_codes ctx sim enabled else [||] in
      let child_sleep p explored =
        if not ctx.por then 0
        else begin
          let base = (sleeping lor explored) land lnot (1 lsl p) in
          let out = ref 0 in
          let m = ref base in
          while !m <> 0 do
            let q = lsb !m in
            m := !m land (!m - 1);
            if Sim.codes_commute codes.(q) codes.(p) then out := !out lor (1 lsl q)
          done;
          !out
        end
      in
      (* children in ascending pid order, lowest set bit first *)
      let rec branch sim explored m =
        if m <> 0 && not ctx.stop then begin
          let p = lsb m in
          let sim =
            match sim with
            | Some s -> s
            | None -> replay ctx (List.rev rev_prefix)
          in
          let sl = child_sleep p explored in
          step ctx sim p;
          dfs ctx sim (p :: rev_prefix) (depth + 1) sl;
          branch None (explored lor (1 lsl p)) (m land (m - 1))
        end
      in
      branch (Some sim) 0 candidates
    end
  end

(* ------------------------------------------------------------------ *)
(* Multicore fan-out                                                   *)
(* ------------------------------------------------------------------ *)

type task = { t_prefix : int list (* execution order *); t_sleep : int (* pid mask *) }

(* Expand the root into a frontier of independent subtree tasks, enough to
   keep [domains] workers busy. Expansion runs in the calling domain and
   uses the same sleep-set rule as [dfs], so the union of the tasks covers
   exactly the schedules the sequential engine would visit. Leaves met
   during expansion are checked inline. *)
let expand_frontier ctx ~target =
  let frontier = Queue.create () in
  Queue.add { t_prefix = []; t_sleep = 0 } frontier;
  let out = ref [] in
  let budget_depth = 8 in
  while (not ctx.stop) && Queue.length frontier > 0
        && Queue.length frontier + List.length !out < target do
    let t = Queue.pop frontier in
    if List.length t.t_prefix >= budget_depth then out := t :: !out
    else begin
      let sim = replay ctx t.t_prefix in
      let enabled = Sim.runnable_bits sim in
      if enabled = 0 then leaf ctx sim (List.rev t.t_prefix)
      else begin
        let sleeping = if ctx.por then enabled land t.t_sleep else 0 in
        let candidates = enabled land lnot sleeping in
        ctx.pruned <- ctx.pruned + popcount sleeping;
        let codes = if ctx.por then node_codes ctx sim enabled else [||] in
        let explored = ref 0 in
        let m = ref candidates in
        while !m <> 0 do
          let p = lsb !m in
          m := !m land (!m - 1);
          let sl =
            if not ctx.por then 0
            else begin
              let base = (sleeping lor !explored) land lnot (1 lsl p) in
              let out = ref 0 in
              let b = ref base in
              while !b <> 0 do
                let q = lsb !b in
                b := !b land (!b - 1);
                if Sim.codes_commute codes.(q) codes.(p) then out := !out lor (1 lsl q)
              done;
              !out
            end
          in
          Queue.add { t_prefix = t.t_prefix @ [ p ]; t_sleep = sl } frontier;
          explored := !explored lor (1 lsl p)
        done
      end
    end
  done;
  Queue.fold (fun acc t -> t :: acc) !out frontier

let run_tasks ctx tasks =
  match
    List.iter
      (fun t ->
        if not ctx.stop then begin
          let sim = replay ctx t.t_prefix in
          dfs ctx sim (List.rev t.t_prefix) (List.length t.t_prefix) t.t_sleep
        end)
      tasks
  with
  | () -> (ctx, None)
  | exception e -> (ctx, Some e)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let exhaustive ?(max_schedules = 200_000) ?(max_depth = 10_000) ?(por = false)
    ?(domains = 1) ?(obs = Scs_obs.Obs.null) ~n ~setup ~check () =
  let t0 = Unix.gettimeofday () in
  let run_count = Atomic.make 0 in
  let mk ~obs () = mk_ctx ~n ~obs ~setup ~check ~por ~max_depth ~max_schedules ~run_count in
  let ctxs, exns =
    if domains <= 1 then begin
      let ctx = mk ~obs () in
      let sim = fresh_sim ctx in
      dfs ctx sim [] 0 0;
      ([ ctx ], [])
    end
    else begin
      (* Root expansion runs in the calling domain against the user's
         sink; each worker then gets a private sink (merged at join in
         worker-index order), so an enabled sink no longer restricts
         exploration to one domain. *)
      let fan_obs = Scs_obs.Obs.enabled obs in
      let worker_obs =
        Array.init (domains - 1) (fun _ ->
            if fan_obs then
              Scs_obs.Obs.create ~ring_capacity:(Scs_obs.Obs.ring_capacity obs) ~n ()
            else obs)
      in
      let root = mk ~obs () in
      let tasks = expand_frontier root ~target:(4 * domains) in
      let queue = Array.of_list tasks in
      let next = Atomic.make 0 in
      let worker wobs () =
        let ctx = mk ~obs:wobs () in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i >= Array.length queue || ctx.stop then (ctx, None)
          else
            match run_tasks ctx [ queue.(i) ] with
            | _, None -> loop ()
            | _, Some _ as r -> r
        in
        loop ()
      in
      let others =
        Array.init (domains - 1) (fun i -> Domain.spawn (worker worker_obs.(i)))
      in
      let mine = worker obs () in
      let joined = mine :: Array.to_list (Array.map Domain.join others) in
      if fan_obs then
        Array.iter (fun wobs -> Scs_obs.Obs.merge_into ~into:obs wobs) worker_obs;
      ( root :: List.map fst joined,
        List.filter_map snd joined )
    end
  in
  (match exns with e :: _ -> raise e | [] -> ());
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 ctxs in
  {
    schedules = sum (fun c -> c.schedules);
    truncated = List.exists (fun c -> c.truncated) ctxs;
    truncated_runs = sum (fun c -> c.truncated_runs);
    pruned = sum (fun c -> c.pruned);
    steps_replayed = sum (fun c -> c.steps);
    wall_s = Unix.gettimeofday () -. t0;
  }
