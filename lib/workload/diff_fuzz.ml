open Scs_util
open Scs_sim

type policy = Fuzz.sched_kind = Uniform | Sticky of float | Weighted | Pct of int

let policy_name kind = Fuzz.spec_name { Fuzz.kind; crash_faults = false; crash_recover = false }
let default_policies = [ Uniform; Sticky 0.25; Pct 3 ]

type verdict = Pass | Viol of string | Skip of string

type classification = Both_pass | Both_violate | Sc_only | Lin_only | Skipped

type finding = {
  df_workload : string;
  df_n : int;
  df_lag : int;
  df_policy : string;
  df_seed : int;
  df_error : string;
  df_schedule : int array;
  df_orig_turns : int;
  df_shrink : Shrink.stats option;
}

type policy_stats = {
  dp_policy : string;
  dp_runs : int;
  dp_both_pass : int;
  dp_both_violate : int;
  dp_sc_only : int;
  dp_lin_only : int;
  dp_skipped : int;
}

type report = {
  dr_workload : string;
  dr_n : int;
  dr_seed : int;
  dr_lag : int;
  dr_stats : policy_stats list;
  dr_findings : finding list;
}

let sc_only_rate r =
  let runs, sc =
    List.fold_left
      (fun (r0, s0) p -> (r0 + p.dp_runs, s0 + p.dp_sc_only))
      (0, 0) r.dr_stats
  in
  if runs = 0 then 0.0 else float_of_int sc /. float_of_int runs

(* One run of [w] on [backend] under a fresh policy seeded by [run_seed]:
   the per-backend executions share the seed (identical policy stream)
   but drive their own simulator, because stale reads change control
   flow — a strict replay of the linearizable schedule on the SC backend
   would drift as soon as verdicts could differ. The captured schedule
   is what makes an SC failure deterministically replayable. *)
let exec ?max_steps w ~backend ~n ~pol ~run_seed =
  let sim = Sim.create ?max_steps ~n () in
  let inst = w.Fuzz_run.instantiate ~backend ~n () in
  inst.Fuzz_run.setup sim;
  let buf = Vec.create () in
  let verdict =
    match Sim.run ~capture:buf sim (Fuzz.base_policy pol (Rng.create run_seed) n) with
    | () -> (
        match inst.Fuzz_run.check sim with
        | () -> Pass
        | exception Fuzz.Violation m -> Viol m
        | exception Fuzz.Skip m -> Skip m)
    | exception Sim.Livelock m -> Skip ("livelock: " ^ m)
  in
  (verdict, Vec.to_array buf)

let classify = function
  | Skip _, _ | _, Skip _ -> Skipped
  | Pass, Pass -> Both_pass
  | Viol _, Viol _ -> Both_violate
  | Pass, Viol _ -> Sc_only
  | Viol _, Pass -> Lin_only

let run ?(policies = default_policies) ?(runs = 200) ?(seed = 42) ?max_steps
    ?(max_findings = 3) ?(shrink = true) (w : Fuzz_run.t) ~n ~lag =
  let sc_backend = Scs_prims.Backend.Sim_sc { lag } in
  let findings = ref [] and nfindings = ref 0 in
  let stats =
    List.mapi
      (fun pi pol ->
        let master = Rng.create (seed + (0x9E3779B1 * (pi + 1))) in
        let both_pass = ref 0
        and both_violate = ref 0
        and sc_only = ref 0
        and lin_only = ref 0
        and skipped = ref 0 in
        for _ = 1 to runs do
          let run_seed = Rng.int (Rng.split master) 0x3FFFFFFF in
          let lin, _ =
            exec ?max_steps w ~backend:Scs_prims.Backend.Sim_lin ~n ~pol ~run_seed
          in
          let sc, sc_schedule = exec ?max_steps w ~backend:sc_backend ~n ~pol ~run_seed in
          match classify (lin, sc) with
          | Both_pass -> incr both_pass
          | Both_violate -> incr both_violate
          | Lin_only -> incr lin_only
          | Skipped -> incr skipped
          | Sc_only ->
              incr sc_only;
              if !nfindings < max_findings then begin
                incr nfindings;
                let error = match sc with Viol m -> m | _ -> assert false in
                let schedule, stats =
                  if shrink then
                    let (schedule, _crashes), stats =
                      Fuzz_run.shrink ~backend:sc_backend w ~n ~schedule:sc_schedule
                        ~crashes:[]
                    in
                    (schedule, Some stats)
                  else (sc_schedule, None)
                in
                findings :=
                  {
                    df_workload = w.Fuzz_run.name;
                    df_n = n;
                    df_lag = lag;
                    df_policy = policy_name pol;
                    df_seed = run_seed;
                    df_error = error;
                    df_schedule = schedule;
                    df_orig_turns = Array.length sc_schedule;
                    df_shrink = stats;
                  }
                  :: !findings
              end
        done;
        {
          dp_policy = policy_name pol;
          dp_runs = runs;
          dp_both_pass = !both_pass;
          dp_both_violate = !both_violate;
          dp_sc_only = !sc_only;
          dp_lin_only = !lin_only;
          dp_skipped = !skipped;
        })
      policies
  in
  {
    dr_workload = w.Fuzz_run.name;
    dr_n = n;
    dr_seed = seed;
    dr_lag = lag;
    dr_stats = stats;
    dr_findings = List.rev !findings;
  }

let repro_of_finding (w : Fuzz_run.t) (f : finding) =
  {
    Fuzz.Repro.workload = Fuzz_run.qualified_name w (Scs_prims.Backend.Sim_sc { lag = f.df_lag });
    n = f.df_n;
    seed = f.df_seed;
    policy = f.df_policy;
    error = f.df_error;
    crashes = [];
    schedule = f.df_schedule;
  }
