open Scs_spec

type req = Get of int | Put of int * int | Freeze of int | Install of int * (int * int) list
type resp = Value of int | Ack | Refused | Sealed of (int * int) list

(* [vals.(b)] holds bucket [b]'s pairs sorted by key, [frozen] the
   frozen buckets sorted: states with the same map and frozen set are
   structurally equal, which is what the checker's hashed state memo
   needs. States are shared, so [vals] is copied, never updated in
   place. *)
type state = { vals : (int * int) list array; frozen : int list }

let bucket_of_key ~buckets key =
  if buckets < 1 then invalid_arg "Kv.bucket_of_key: buckets must be >= 1";
  (* Fibonacci-style multiplicative mix so adjacent keys spread out. *)
  let h = key * 0x9E3779B1 in
  let h = h lxor (h lsr 17) in
  (h land max_int) mod buckets

let key_of_req = function Get k | Put (k, _) -> Some k | Freeze _ | Install _ -> None

let rec put_sorted k v = function
  | [] -> [ (k, v) ]
  | ((k', _) as p) :: tl ->
      if k' < k then p :: put_sorted k v tl else if k' = k then (k, v) :: tl else (k, v) :: p :: tl

let get_default k vals = match List.assoc_opt k vals with Some v -> v | None -> 0

let rec insert_sorted b = function
  | [] -> [ b ]
  | b' :: tl as l -> if b' < b then b' :: insert_sorted b tl else if b' = b then l else b :: l

let show_pairs ps =
  "[" ^ String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) ps) ^ "]"

let show_req = function
  | Get k -> Printf.sprintf "get %d" k
  | Put (k, v) -> Printf.sprintf "put %d:=%d" k v
  | Freeze b -> Printf.sprintf "freeze b%d" b
  | Install (b, ps) -> Printf.sprintf "install b%d %s" b (show_pairs ps)

let show_resp = function
  | Value v -> Printf.sprintf "value %d" v
  | Ack -> "ack"
  | Refused -> "refused"
  | Sealed ps -> "sealed " ^ show_pairs ps

let spec ~buckets =
  let bucket = bucket_of_key ~buckets in
  (* a bucket index out of range names an empty bucket *)
  let in_range b = b >= 0 && b < buckets in
  let apply st = function
    | Get k ->
        let b = bucket k in
        if List.mem b st.frozen then (st, Refused) else (st, Value (get_default k st.vals.(b)))
    | Put (k, v) ->
        let b = bucket k in
        if List.mem b st.frozen then (st, Refused)
        else begin
          let vals = Array.copy st.vals in
          vals.(b) <- put_sorted k v vals.(b);
          ({ st with vals }, Ack)
        end
    | Freeze b ->
        ( { st with frozen = insert_sorted b st.frozen },
          Sealed (if in_range b then st.vals.(b) else []) )
    | Install (b, pairs) ->
        (* each pair goes to the bucket of its own key, so the spec stays
           total on pairs sealed from elsewhere *)
        let vals = Array.copy st.vals in
        if in_range b then vals.(b) <- [];
        List.iter (fun (k, v) -> vals.(bucket k) <- put_sorted k v vals.(bucket k)) pairs;
        ({ vals; frozen = List.filter (fun b' -> b' <> b) st.frozen }, Ack)
  in
  Spec.make
    ~name:(Printf.sprintf "shard-kv/b%d" buckets)
    ~init:{ vals = Array.make buckets []; frozen = [] } ~apply ~show_req ~show_resp ()

let flat_spec =
  let apply vals = function
    | Get k -> (vals, Value (get_default k vals))
    | Put (k, v) -> (put_sorted k v vals, Ack)
    | Freeze _ | Install _ -> (vals, Refused)
  in
  Spec.make ~name:"kv" ~init:[] ~apply ~show_req ~show_resp ()
