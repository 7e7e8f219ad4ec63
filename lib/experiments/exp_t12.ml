(** T12 (infrastructure) — Linearizability-checker throughput.

    The checker is a scalable Wing–Gong search: growable bitvector,
    hashed state memo, and Lowe-style minimal-response-first candidate
    order. It verifies randomly shuffled linearizable queue histories
    (concurrent batches of width 8) at 20 / 62 / 200 / 1000 operations;
    the table reports the median wall time over 5 seeds. The speed-up
    over the seed bitmask checker was measured when the engine landed
    (EXPERIMENTS.md T12); that checker survives only as the differential
    oracle of test/test_linearize_diff.ml. *)

open Scs_util
open Scs_spec
open Scs_history

(* ---- history generation ----------------------------------------------- *)

(* A linearizable queue history of [size] committed operations built in
   concurrent batches of width [width]: each batch invokes its operations,
   then responds to them in generation order, which is therefore a valid
   linearization witness; responses come from threading the sequential
   queue model through that order. The operation list is Fisher–Yates
   shuffled at the end: verdicts are order-independent, and the checker
   re-sorts by response time internally. *)
let queue_history rng ~size ~width =
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  let next_id = ref 0 in
  let fresh = ref 0 in
  let model = Queue.create () in
  let out = ref [] in
  let made = ref 0 in
  while !made < size do
    let w = min width (size - !made) in
    let invs = Array.init w (fun _ -> 0) in
    for i = 0 to w - 1 do
      invs.(i) <- next ()
    done;
    for i = 0 to w - 1 do
      (* Keep the model queue short: a long queue lets wrong within-batch
         enqueue orders survive unrefuted for many batches (the dequeue
         that would expose them is far away), which makes the search
         exponential — we want hard-but-tractable
         instances, not pathological ones. *)
      let payload, resp =
        if Queue.is_empty model || (Queue.length model < 4 && Rng.bool rng) then begin
          incr fresh;
          Queue.push !fresh model;
          (Objects.Enqueue !fresh, Objects.Q_ok)
        end
        else (Objects.Dequeue, Objects.Q_dequeued (Queue.take_opt model))
      in
      incr next_id;
      let res = next () in
      out :=
        {
          Trace.op_pid = i;
          op_req = Request.make !next_id payload;
          invoke_seq = invs.(i);
          invoke_ts = invs.(i);
          op_init = None;
          op_recoveries = 0;
          outcome = Trace.Committed { resp; resp_seq = res; resp_ts = res };
        }
        :: !out;
      incr made
    done
  done;
  let arr = Array.of_list !out in
  Rng.shuffle rng arr;
  Array.to_list arr

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let sizes = [ 20; 62; 200; 1000 ]
let seeds = [ 11; 22; 33; 44; 55 ]

let throughput_row size =
  let ms =
    List.map
      (fun seed ->
        let rng = Rng.create ((seed * 7919) + size) in
        let ops = queue_history rng ~size ~width:8 in
        let ok, dt = time (fun () -> Linearize.check_operations Objects.queue ops) in
        assert ok;
        dt *. 1000.)
      seeds
  in
  [ string_of_int size; Printf.sprintf "%.3f" (median ms) ]

let throughput_table () =
  Table.print
    ~title:
      (Printf.sprintf
         "Shuffled linearizable queue histories, width 8, median over %d seeds"
         (List.length seeds))
    ~header:[ "ops"; "scalable (ms)" ]
    (List.map throughput_row sizes)

let run () =
  Exp_common.section "T12" "Checker throughput: scalable engine";
  throughput_table ();
  print_newline ()
