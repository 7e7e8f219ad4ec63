open Scs_util

exception Violation of string
exception Skip of string

type sched_kind = Uniform | Sticky of float | Weighted | Pct of int

type policy_spec = { kind : sched_kind; crash_faults : bool; crash_recover : bool }

let spec_name { kind; crash_faults; crash_recover } =
  let base =
    match kind with
    | Uniform -> "uniform"
    | Sticky p -> Printf.sprintf "sticky(%.2f)" p
    | Weighted -> "weighted"
    | Pct k -> Printf.sprintf "pct(%d)" k
  in
  if crash_recover then base ^ "+crashrec" else if crash_faults then base ^ "+crash" else base

let default_portfolio =
  [
    { kind = Uniform; crash_faults = false; crash_recover = false };
    { kind = Sticky 0.25; crash_faults = false; crash_recover = false };
    { kind = Weighted; crash_faults = false; crash_recover = false };
    { kind = Pct 3; crash_faults = false; crash_recover = false };
    { kind = Uniform; crash_faults = true; crash_recover = false };
  ]

let recover_portfolio =
  [
    { kind = Uniform; crash_faults = true; crash_recover = true };
    { kind = Sticky 0.25; crash_faults = true; crash_recover = true };
    { kind = Pct 3; crash_faults = true; crash_recover = true };
  ]

let portfolio_names =
  [ "default"; "all"; "uniform"; "sticky"; "weighted"; "pct"; "crash"; "crash-recover" ]

let portfolio_of_string = function
  | "default" | "all" -> Some default_portfolio
  | "uniform" -> Some [ { kind = Uniform; crash_faults = false; crash_recover = false } ]
  | "sticky" -> Some [ { kind = Sticky 0.25; crash_faults = false; crash_recover = false } ]
  | "weighted" -> Some [ { kind = Weighted; crash_faults = false; crash_recover = false } ]
  | "pct" -> Some [ { kind = Pct 3; crash_faults = false; crash_recover = false } ]
  | "crash" -> Some [ { kind = Uniform; crash_faults = true; crash_recover = false } ]
  | "crash-recover" -> Some recover_portfolio
  | _ -> None

type violation = {
  v_workload : string;
  v_n : int;
  v_policy : string;
  v_seed : int;
  v_schedule : int array;
  v_crashes : Crash.t list;
  v_error : string;
}

type policy_stats = {
  s_policy : string;
  s_runs : int;
  s_turns : int;
  s_violations : int;
  s_skipped : int;
  s_checked_large : int;
  s_check_wall : float;
  s_gen_wall : float;
      (** wall-clock spent generating schedules (the loop minus the
          verification flushes); critical path (max) across gen domains *)
  s_wall : float;
  s_first_failure : (int * float) option;
      (** run index and wall-clock seconds of the first violation *)
  s_step_p50 : float;
  s_step_p99 : float;  (** percentiles of per-run total memory steps *)
  s_max_contention : int;
      (** max schedule-level step contention across the batch's runs *)
}

type report = {
  r_workload : string;
  r_n : int;
  r_seed : int;
  r_stats : policy_stats list;
  r_violations : violation list;
  r_pool : Pool.stats;  (** simulator-pool totals across all policies and gen domains *)
}

let schedules_per_sec s = if s.s_wall > 0.0 then float_of_int s.s_runs /. s.s_wall else 0.0
let gen_per_sec s = if s.s_gen_wall > 0.0 then float_of_int s.s_runs /. s.s_gen_wall else 0.0

let check_per_sec s =
  if s.s_check_wall > 0.0 then float_of_int s.s_runs /. s.s_check_wall else 0.0

(* Schedule-level step-contention of one run: for each process, the
   number of turns taken by *other* processes between its first and
   last captured turns; the run's statistic is the max over processes.
   Computed from the captured pid schedule alone, so it costs nothing
   on the simulator's hot path. Each captured turn executes at most
   one memory step, so this upper-bounds the step contention (paper
   §2) any single operation in the run can experience. *)
(* Scratch-array version: the caller owns [first]/[last]/[count]
   (length n), reused across runs so the per-run cost is O(turns) with
   no allocation. *)
let schedule_contention_into ~n ~first ~last ~count (buf : int Vec.t) =
  Array.fill first 0 n (-1);
  Array.fill last 0 n (-1);
  Array.fill count 0 n 0;
  Vec.iteri
    (fun i p ->
      if p >= 0 && p < n then begin
        if first.(p) < 0 then first.(p) <- i;
        last.(p) <- i;
        count.(p) <- count.(p) + 1
      end)
    buf;
  let m = ref 0 in
  for p = 0 to n - 1 do
    if count.(p) > 0 then begin
      let others = last.(p) - first.(p) + 1 - count.(p) in
      if others > !m then m := others
    end
  done;
  !m

let base_policy kind rng n =
  match kind with
  | Uniform -> Policy.random rng
  | Sticky p -> Policy.sticky rng ~switch_prob:p
  | Weighted ->
      (* fresh skewed positive weights per run: biased schedulers reach
         interleavings uniform sampling essentially never produces *)
      let w = Array.init n (fun _ -> float_of_int (1 lsl Rng.int rng 5)) in
      Policy.weighted rng w
  | Pct k -> Policy.pct rng ~k ~depth:(16 * n)

(* Crash events for one run. With [recover = false] the Rng draws are
   exactly the historic [gen_crashes] stream (one bernoulli per pid plus
   one int per victim), so fail-stop portfolios keep their seed-for-seed
   behaviour. With [recover = true] each victim usually (3/4) gets a
   recovery delay of 0..7 further global steps, and sometimes (1/4) a
   second crash event landing on the recovered incarnation — the
   recover-during-contention interleavings the crash-recovery model is
   about. *)
let gen_crash_events ~recover rng n max_crash_steps =
  List.concat_map
    (fun p ->
      if not (Rng.bernoulli rng 0.25) then []
      else begin
        let at = 1 + Rng.int rng max_crash_steps in
        if not recover then [ Crash.terminal ~pid:p ~at ]
        else if Rng.bernoulli rng 0.75 then begin
          let first = Crash.recovering ~pid:p ~at ~after:(Rng.int rng 8) in
          if Rng.bernoulli rng 0.25 then begin
            let at2 = at + 1 + Rng.int rng max_crash_steps in
            let second =
              if Rng.bernoulli rng 0.5 then Crash.recovering ~pid:p ~at:at2 ~after:(Rng.int rng 8)
              else Crash.terminal ~pid:p ~at:at2
            in
            [ first; second ]
          end
          else [ first ]
        end
        else [ Crash.terminal ~pid:p ~at ]
      end)
    (List.init n (fun p -> p))

(* Replay a captured [(schedule, crashes)] pair against a fresh simulator.
   Strict scripting: any divergence from the recorded schedule raises
   [Policy.Replay_drift] instead of silently executing a different run.
   Crashes fire exactly as in the fuzz loop (on [Sim.steps_of], which
   evolves identically for identical executed turn prefixes; recovery
   re-admission is clock-driven and therefore equally deterministic). *)
let replay ?max_steps ~n ~setup ~schedule ~crashes () =
  let sim = Sim.create ?max_steps ~n () in
  setup sim;
  Sim.run ~crashes sim (Policy.scripted ~strict:true schedule);
  sim

let now = Unix.gettimeofday

(* Histories of more than [large_history] operations were skipped before
   the scalable checker existed (the seed checker's 62-operation cap);
   workload checks report them here so fuzz stats can show that such
   runs are verified. A global atomic (snapshotted around each policy
   batch, whose verifications are joined before the snapshot is read)
   stays correct when checks run on worker domains. *)
let large_history = 62
let large_counter = Atomic.make 0
let checked_large () = Atomic.incr large_counter
let checked_large_total () = Atomic.get large_counter

(* A finished execution awaiting verification. [pd_done] runs after the
   verdict is recorded — it releases the run's pooled simulator, which
   is why a pooled simulator is never reused before its (possibly
   deferred) check has read it. *)
type pending = {
  pd_run : int;
  pd_seed : int;
  pd_schedule : int array;
  pd_crashes : Crash.t list;
  pd_check : unit -> unit;
  pd_done : unit -> unit;
}

type verdict = V_ok | V_viol of string | V_skip | V_exn of exn

(* Verify a chunk of finished runs, fanning out over [domains] OCaml
   domains when given more than one. Each run owns its sim/trace (fresh
   workload instance per run), so checks of distinct runs share no
   mutable state. Returns per-run (verdict, check-seconds) in run order. *)
let verify_chunk ~domains (chunk : pending array) =
  let one (p : pending) =
    let t0 = now () in
    let v =
      match p.pd_check () with
      | () -> V_ok
      | exception Violation msg -> V_viol msg
      | exception (Skip _ | Sim.Livelock _) -> V_skip
      | exception e -> V_exn e
    in
    (v, now () -. t0)
  in
  if domains <= 1 || Array.length chunk < 2 then Array.map one chunk
  else begin
    let results = Array.make (Array.length chunk) (V_ok, 0.0) in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length chunk then begin
          results.(i) <- one chunk.(i);
          loop ()
        end
      in
      loop ()
    in
    let others =
      Array.init (min (domains - 1) (Array.length chunk - 1)) (fun _ ->
          Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join others;
    results
  end

(* Result of generating one contiguous range of runs on one domain. *)
type partial = {
  mutable p_runs : int;
  mutable p_turns : int;
  mutable p_viol : (int * violation) list;  (* (global run index, v), newest first *)
  mutable p_skipped : int;
  mutable p_check_wall : float;
  mutable p_flush_wall : float;  (* wall spent inside verification flushes *)
  mutable p_wall : float;
  mutable p_first : (int * float) option;
  p_steps : float Vec.t;
  mutable p_max_cont : int;
  p_pool : Pool.stats;
  p_obs : Scs_obs.Obs.t;  (* this domain's sink (the shared one when gen_domains = 1) *)
}

let run ?(policies = default_portfolio) ?(runs = 1000) ?time_budget
    ?(max_violations = max_int) ?(seed = 1) ?max_steps ?(max_crash_steps = 15)
    ?(check_domains = 1) ?(gen_domains = 1) ?(obs = Scs_obs.Obs.null) ~workload
    ~n ~instantiate () =
  let gen_domains = max 1 gen_domains in
  let pool_totals = Pool.zero_stats () in
  let per_policy_viols = ref [] in
  (* reverse policy order *)
  let stats =
    List.mapi
      (fun idx spec ->
        let name = spec_name spec in
        let t0 = now () in
        let large0 = checked_large_total () in
        (* shared across this policy's gen domains: early stop on the
           violation budget *)
        let viol_count = Atomic.make 0 in
        (* Generate runs [lo, hi) (global indices) on one domain. For
           [dom = 0] the seed stream is exactly the legacy sequential
           stream, so [gen_domains = 1] reproduces old behaviour run for
           run. *)
        let run_range ~dom ~lo ~hi () =
          let prng = Rng.create (seed + (0x9E3779B9 * (idx + 1)) + (0x51ED270B * dom)) in
          let dobs =
            if gen_domains <= 1 || not (Scs_obs.Obs.enabled obs) then obs
            else Scs_obs.Obs.create ~ring_capacity:(Scs_obs.Obs.ring_capacity obs) ~n ()
          in
          let part =
            {
              p_runs = 0;
              p_turns = 0;
              p_viol = [];
              p_skipped = 0;
              p_check_wall = 0.0;
              p_flush_wall = 0.0;
              p_wall = 0.0;
              p_first = None;
              p_steps = Vec.create ();
              p_max_cont = 0;
              p_pool = Pool.zero_stats ();
              p_obs = dobs;
            }
          in
          let sim_pool = Pool.create ?max_steps ~obs:dobs ~n () in
          let buf : int Vec.t = Vec.create () in
          let sc_first = Array.make n 0 and sc_last = Array.make n 0 in
          let sc_count = Array.make n 0 in
          let chunk_size = if check_domains <= 1 then 1 else 16 * check_domains in
          let pending : pending Vec.t = Vec.create () in
          let record_violation gidx run_seed schedule crashes msg =
            Atomic.incr viol_count;
            if part.p_first = None then part.p_first <- Some (gidx, now () -. t0);
            part.p_viol <-
              ( gidx,
                {
                  v_workload = workload;
                  v_n = n;
                  v_policy = name;
                  v_seed = run_seed;
                  v_schedule = schedule;
                  v_crashes = crashes;
                  v_error = msg;
                } )
              :: part.p_viol
          in
          let flush () =
            let tf0 = now () in
            let chunk = Vec.to_array pending in
            Vec.clear pending;
            let results = verify_chunk ~domains:check_domains chunk in
            Array.iteri
              (fun i (v, dt) ->
                part.p_check_wall <- part.p_check_wall +. dt;
                let p = chunk.(i) in
                (match v with
                | V_ok -> ()
                | V_skip -> part.p_skipped <- part.p_skipped + 1
                | V_exn e -> raise e
                | V_viol msg -> record_violation p.pd_run p.pd_seed p.pd_schedule p.pd_crashes msg);
                p.pd_done ())
              results;
            part.p_flush_wall <- part.p_flush_wall +. (now () -. tf0)
          in
          let keep_going () =
            lo + part.p_runs < hi
            && Atomic.get viol_count < max_violations
            && match time_budget with None -> true | Some b -> now () -. t0 < b
          in
          while keep_going () do
            let gidx = lo + part.p_runs in
            let run_seed = Rng.int prng 0x3FFFFFFF in
            let rng = Rng.create run_seed in
            let setup, check = instantiate () in
            let sim = Pool.acquire sim_pool in
            setup sim;
            let crashes =
              if spec.crash_faults then
                gen_crash_events ~recover:spec.crash_recover rng n max_crash_steps
              else []
            in
            Vec.clear buf;
            let ok =
              try
                Sim.run ~capture:buf ~crashes sim (base_policy spec.kind rng n);
                true
              with
              | Violation msg ->
                  (* a check raised from inside a process fiber *)
                  record_violation gidx run_seed (Vec.to_array buf) crashes msg;
                  false
              | Skip _ | Sim.Livelock _ ->
                  part.p_skipped <- part.p_skipped + 1;
                  false
            in
            Vec.push part.p_steps (float_of_int (Sim.total_steps sim));
            let c = schedule_contention_into ~n ~first:sc_first ~last:sc_last ~count:sc_count buf in
            if c > part.p_max_cont then part.p_max_cont <- c;
            part.p_turns <- part.p_turns + Vec.length buf;
            if ok then
              Vec.push pending
                {
                  pd_run = gidx;
                  pd_seed = run_seed;
                  pd_schedule = Vec.to_array buf;
                  pd_crashes = crashes;
                  pd_check = (fun () -> check sim);
                  pd_done = (fun () -> Pool.release sim_pool sim);
                }
            else Pool.release sim_pool sim;
            part.p_runs <- part.p_runs + 1;
            if Vec.length pending >= chunk_size then flush ()
          done;
          flush ();
          Pool.merge_stats ~into:part.p_pool (Pool.stats sim_pool);
          part.p_wall <- now () -. t0;
          part
        in
        let parts =
          if gen_domains <= 1 then [| run_range ~dom:0 ~lo:0 ~hi:runs () |]
          else begin
            let base = runs / gen_domains and rem = runs mod gen_domains in
            let bounds =
              Array.init gen_domains (fun d ->
                  let lo = (d * base) + min d rem in
                  (lo, lo + base + if d < rem then 1 else 0))
            in
            (* [gen_domains] fixes the seed streams and batch split; the
               OS domains actually spawned are capped at the runtime's
               recommendation (oversubscribed domains serialize on every
               minor-GC barrier). Each worker runs its streams
               sequentially into distinct slots, so the mapping of
               streams to workers cannot change any result. *)
            let workers =
              min gen_domains (max 1 (Domain.recommended_domain_count ()))
            in
            let slots = Array.make gen_domains None in
            let run_streams w () =
              let d = ref w in
              while !d < gen_domains do
                let lo, hi = bounds.(!d) in
                slots.(!d) <- Some (run_range ~dom:!d ~lo ~hi ());
                d := !d + workers
              done
            in
            let handles =
              Array.init (workers - 1) (fun i -> Domain.spawn (run_streams (i + 1)))
            in
            run_streams 0 ();
            Array.iter Domain.join handles;
            Array.map (function Some p -> p | None -> assert false) slots
          end
        in
        (* deterministic merge: domain-index order for obs sinks and pool
           stats, global run order for violations and first-failure *)
        if gen_domains > 1 && Scs_obs.Obs.enabled obs then
          Array.iter (fun p -> Scs_obs.Obs.merge_into ~into:obs p.p_obs) parts;
        Array.iter (fun p -> Pool.merge_stats ~into:pool_totals p.p_pool) parts;
        let viols =
          Array.to_list parts
          |> List.concat_map (fun p -> List.rev p.p_viol)
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> List.map snd
        in
        per_policy_viols := viols :: !per_policy_viols;
        let first =
          Array.fold_left
            (fun acc p ->
              match (acc, p.p_first) with
              | None, f | f, None -> f
              | Some (r1, w1), Some (r2, _) when r1 <= r2 -> Some (r1, w1)
              | _, f -> f)
            None parts
        in
        let steps_arr =
          Array.concat (Array.to_list (Array.map (fun p -> Vec.to_array p.p_steps) parts))
        in
        let pct p = if Array.length steps_arr = 0 then 0.0 else Stats.percentile steps_arr p in
        let sum f = Array.fold_left (fun acc p -> acc + f p) 0 parts in
        let sumf f = Array.fold_left (fun acc p -> acc +. f p) 0.0 parts in
        let maxi f = Array.fold_left (fun acc p -> max acc (f p)) 0 parts in
        {
          s_policy = name;
          s_runs = sum (fun p -> p.p_runs);
          s_turns = sum (fun p -> p.p_turns);
          s_violations = sum (fun p -> List.length p.p_viol);
          s_skipped = sum (fun p -> p.p_skipped);
          s_checked_large = checked_large_total () - large0;
          s_check_wall = sumf (fun p -> p.p_check_wall);
          s_gen_wall =
            Array.fold_left (fun acc p -> Float.max acc (p.p_wall -. p.p_flush_wall)) 0.0 parts;
          s_wall = now () -. t0;
          s_first_failure = first;
          s_step_p50 = pct 50.0;
          s_step_p99 = pct 99.0;
          s_max_contention = maxi (fun p -> p.p_max_cont);
        })
      policies
  in
  {
    r_workload = workload;
    r_n = n;
    r_seed = seed;
    r_stats = stats;
    r_violations = List.concat (List.rev !per_policy_viols);
    r_pool = pool_totals;
  }

(* {1 Repro artifacts} *)

module Repro = struct
  type t = {
    workload : string;
    n : int;
    seed : int;
    policy : string;
    error : string;
    crashes : Crash.t list;
    schedule : int array;
  }

  let of_violation (v : violation) =
    {
      workload = v.v_workload;
      n = v.v_n;
      seed = v.v_seed;
      policy = v.v_policy;
      error = v.v_error;
      crashes = v.v_crashes;
      schedule = v.v_schedule;
    }

  let to_string r =
    let b = Buffer.create 256 in
    Buffer.add_string b "scsrepro 1\n";
    Printf.bprintf b "workload %s\n" r.workload;
    Printf.bprintf b "n %d\n" r.n;
    Printf.bprintf b "seed %d\n" r.seed;
    Printf.bprintf b "policy %s\n" r.policy;
    Printf.bprintf b "error %s\n" r.error;
    Printf.bprintf b "crashes %s\n" (Crash.list_to_string r.crashes);
    Printf.bprintf b "schedule %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int r.schedule)));
    Buffer.contents b

  let fail fmt = Printf.ksprintf (fun s -> failwith ("Repro.of_string: " ^ s)) fmt

  let of_string s =
    let lines =
      String.split_on_char '\n' s
      |> List.filter (fun l -> String.trim l <> "")
    in
    let field name line =
      let prefix = name ^ " " in
      let pl = String.length prefix in
      if String.length line >= pl && String.sub line 0 pl = prefix then
        String.sub line pl (String.length line - pl)
      else fail "expected %S line, got %S" name line
    in
    match lines with
    | magic :: rest when String.trim magic = "scsrepro 1" -> (
        match rest with
        | [ lw; ln; ls; lp; le; lc; lsched ] ->
            let crashes =
              match Crash.list_of_string (field "crashes" lc) with
              | Some cs -> cs
              | None -> fail "bad crashes field %S" (field "crashes" lc)
            in
            let schedule =
              field "schedule" lsched |> String.split_on_char ' '
              |> List.filter (fun x -> x <> "")
              |> List.map int_of_string |> Array.of_list
            in
            {
              workload = field "workload" lw;
              n = int_of_string (field "n" ln);
              seed = int_of_string (field "seed" ls);
              policy = field "policy" lp;
              error = field "error" le;
              crashes;
              schedule;
            }
        | _ -> fail "expected 7 fields, got %d" (List.length rest))
    | l :: _ -> fail "bad magic %S" l
    | [] -> fail "empty input"

  let save path r =
    let oc = open_out path in
    output_string oc (to_string r);
    close_out oc

  let load path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    of_string s
end

(* {1 Lane rendering} *)

let render_lanes ?(title = "failing schedule") ~n ~schedule ~crashes () =
  let len = Array.length schedule in
  (* Walk process [p]'s lane, simulating how its crash events fired
     against the captured schedule. A crash event [at = k] fires once
     [p] has executed [k] memory steps; [p]'s first captured turn after
     a (re)start only advances it to its first operation (no memory
     step), so the step count lags its turn count by one per
     incarnation. A firing crash marks [X] on the next cell (the
     scheduler decision at which the crash policy retired the process,
     [len] = appended past the end if the run ended there); a recovering
     crash additionally marks [R] on [p]'s first captured turn after the
     crash — the re-admitted recovery code's first turn. Returns the
     fired count and the overlay list [(cell, char)]. *)
  let walk p =
    let events = List.filter (fun (c : Crash.t) -> c.pid = p) (Crash.canonical crashes) in
    let marks = ref [] in
    let fired = ref 0 in
    let steps = ref 0 in
    let fresh = ref true in
    (* [p] has a turn coming that advances to its first op, no step *)
    let crashed = ref false in
    let recovering = ref false in
    let pending = ref events in
    for i = 0 to len do
      (* decision point before cell [i] ([i = len]: after the last turn) *)
      (match !pending with
      | (c : Crash.t) :: rest when (not !crashed) && !steps >= c.at ->
          marks := (i, 'X') :: !marks;
          incr fired;
          crashed := true;
          recovering := c.recover <> None;
          pending := rest
      | _ -> ());
      if i < len && schedule.(i) = p then
        if !crashed then begin
          if !recovering then begin
            (* first turn of the re-admitted recovery fiber *)
            marks := (i, 'R') :: !marks;
            crashed := false;
            recovering := false;
            fresh := false
            (* the R turn is the no-step advance turn *)
          end
        end
        else if !fresh then fresh := false
        else incr steps
    done;
    (!fired, List.rev !marks)
  in
  (* ASCII only: Table pads cells by byte length *)
  let lane p marks =
    let base = Bytes.init len (fun i -> if schedule.(i) = p then '#' else '.') in
    let extra = ref "" in
    List.iter
      (fun (i, ch) -> if i < len then Bytes.set base i ch else extra := !extra ^ String.make 1 ch)
      marks;
    Bytes.to_string base ^ !extra
  in
  let rows =
    List.init n (fun p ->
        let fired, marks = walk p in
        let events = List.filter (fun (c : Crash.t) -> c.pid = p) (Crash.canonical crashes) in
        let label =
          String.concat ""
            (List.mapi
               (fun j (c : Crash.t) ->
                 Printf.sprintf " crash@%s%s"
                   (match c.recover with
                   | None -> string_of_int c.at
                   | Some d -> Printf.sprintf "%d+%d" c.at d)
                   (if j >= fired then " (unfired)" else ""))
               events)
        in
        [ Printf.sprintf "p%d%s" p label; lane p marks ])
  in
  let ruler =
    String.concat ""
      (List.init len (fun i -> if (i + 1) mod 10 = 0 then "|" else if (i + 1) mod 5 = 0 then "+" else " "))
  in
  Table.render ~title
    ~header:[ "proc"; Printf.sprintf "turn 1..%d" len ]
    (rows @ [ [ "(x10)"; ruler ] ])
