(* Bounded LRU keyed by string, owned by the daemon's one loop: its
   compile cache sees a handful of lookups per request, so a
   last-used-stamp scan on eviction (O(capacity)) beats carrying a
   doubly-linked list for capacities in the tens. *)

type 'a slot = { value : 'a; mutable used : int }

type 'a t = {
  capacity : int;
  tbl : (string, 'a slot) Hashtbl.t;
  mutable clock : int;  (* monotonic last-use stamp *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int;
               capacity : int }

let create ~capacity =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Cache.create: capacity must be >= 1 (got %d)" capacity);
  { capacity; tbl = Hashtbl.create (2 * capacity); clock = 0; hits = 0;
    misses = 0; evictions = 0 }

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some s ->
    t.clock <- t.clock + 1;
    s.used <- t.clock;
    t.hits <- t.hits + 1;
    Some s.value
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_oldest t =
  let victim = ref None in
  Hashtbl.iter
    (fun k s ->
      match !victim with
      | Some (_, used) when used <= s.used -> ()
      | _ -> victim := Some (k, s.used))
    t.tbl;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evictions <- t.evictions + 1
  | None -> ()

let add t key value =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.tbl key with
  | Some s ->
    (* a second insert keeps the first writer's value (the keys are
       content digests, so the bytes are equal anyway) but must refresh
       the LRU stamp: the entry was just produced by a full miss-path
       computation, and leaving it cold makes it the next eviction
       victim exactly when it is hottest *)
    s.used <- t.clock
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then evict_oldest t;
    Hashtbl.replace t.tbl key { value; used = t.clock }

let stats (t : _ t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions;
    entries = Hashtbl.length t.tbl; capacity = t.capacity }
