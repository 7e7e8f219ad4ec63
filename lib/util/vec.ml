type 'a t = { mutable data : 'a array; mutable len : int }

(* The capacity hint is accepted for interface stability; storage is
   allocated lazily on first push because we need a seed element. *)
let create ?capacity:_ () = { data = [||]; len = 0 }

let length t = t.len

let grow t needed =
  let cap = Array.length t.data in
  if needed > cap then begin
    let ncap = max needed (max 16 (2 * cap)) in
    (* The fill element is only a placeholder; slots beyond [len] are never
       read. *)
    let fresh = Array.make ncap t.data.(0) in
    Array.blit t.data 0 fresh 0 t.len;
    t.data <- fresh
  end

let push t x =
  if Array.length t.data = 0 then begin
    t.data <- Array.make 16 x;
    t.len <- 1
  end
  else begin
    grow t (t.len + 1);
    t.data.(t.len) <- x;
    t.len <- t.len + 1
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let clear t = t.len <- 0

let truncate t len =
  if len < 0 || len > t.len then invalid_arg "Vec.truncate: bad length";
  t.len <- len

(* Pre-size the backing store so a burst of pushes triggers no growth;
   [fill] seeds the storage when none has been allocated yet (slots
   beyond [len] are never read back). *)
let reserve t cap fill =
  if cap > Array.length t.data then
    if Array.length t.data = 0 then t.data <- Array.make (max cap 16) fill
    else grow t cap

let to_array t = Array.sub t.data 0 t.len

let to_list t = Array.to_list (to_array t)

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

(* A top-level loop: [exists] allocates no closure of its own, since the
   UC runs it on every log scan. *)
let rec exists_from p t i = i < t.len && (p t.data.(i) || exists_from p t (i + 1))

let exists p t = exists_from p t 0

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)
