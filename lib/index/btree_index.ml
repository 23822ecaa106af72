module Stats = Nv_nvmm.Stats

let fanout = 32

type 'a node =
  | Leaf of 'a leaf
  | Inner of 'a inner

and 'a leaf = {
  mutable lkeys : int64 array;
  mutable lvals : 'a option array;
  mutable ln : int;
  mutable next : 'a leaf option;
}

and 'a inner = {
  mutable ikeys : int64 array; (* separators: child i holds keys < ikeys.(i) *)
  mutable children : 'a node array;
  mutable icount : int; (* number of children; separators = icount - 1 *)
}

type 'a t = { mutable root : 'a node; mutable count : int }

let new_leaf () =
  { lkeys = Array.make fanout 0L; lvals = Array.make fanout None; ln = 0; next = None }

let create () = { root = Leaf (new_leaf ()); count = 0 }
let length t = t.count

(* A node visit costs ~3 cache lines (binary search over a wide node). *)
let touch stats = Stats.dram_read_lines stats 3

(* Index of the first key >= [key] in a sorted prefix. *)
let lower_bound keys n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child to descend into for [key]. *)
let child_index (i : 'a inner) key =
  let rec go j = if j < i.icount - 1 && Int64.compare key i.ikeys.(j) >= 0 then go (j + 1) else j in
  go 0

let rec find_leaf stats node key =
  touch stats;
  match node with
  | Leaf l -> l
  | Inner i -> find_leaf stats i.children.(child_index i key) key

let find t stats key =
  let l = find_leaf stats t.root key in
  let pos = lower_bound l.lkeys l.ln key in
  if pos < l.ln && l.lkeys.(pos) = key then l.lvals.(pos) else None

(* Split a full leaf, returning (separator, new right leaf). *)
let split_leaf (l : 'a leaf) =
  let half = fanout / 2 in
  let r = new_leaf () in
  Array.blit l.lkeys half r.lkeys 0 (fanout - half);
  Array.blit l.lvals half r.lvals 0 (fanout - half);
  r.ln <- fanout - half;
  (* Clear moved slots so values are not retained by the old leaf. *)
  Array.fill l.lvals half (fanout - half) None;
  l.ln <- half;
  r.next <- l.next;
  l.next <- Some r;
  (r.lkeys.(0), r)

let split_inner (i : 'a inner) =
  let half = i.icount / 2 in
  let sep = i.ikeys.(half - 1) in
  let r =
    {
      ikeys = Array.make fanout 0L;
      children = Array.make (fanout + 1) i.children.(0);
      icount = i.icount - half;
    }
  in
  Array.blit i.ikeys half r.ikeys 0 (i.icount - half - 1);
  Array.blit i.children half r.children 0 (i.icount - half);
  i.icount <- half;
  (sep, r)

(* Insert into the subtree; returns (sep, right) when the node split. *)
let rec insert_node t stats node key value =
  touch stats;
  match node with
  | Leaf l ->
      let pos = lower_bound l.lkeys l.ln key in
      if pos < l.ln && l.lkeys.(pos) = key then begin
        l.lvals.(pos) <- Some value;
        None
      end
      else begin
        if l.ln = fanout then begin
          (* Split first, then insert into the proper half. *)
          let sep, r = split_leaf l in
          let target = if Int64.compare key sep >= 0 then r else l in
          let pos = lower_bound target.lkeys target.ln key in
          Array.blit target.lkeys pos target.lkeys (pos + 1) (target.ln - pos);
          Array.blit target.lvals pos target.lvals (pos + 1) (target.ln - pos);
          target.lkeys.(pos) <- key;
          target.lvals.(pos) <- Some value;
          target.ln <- target.ln + 1;
          t.count <- t.count + 1;
          Stats.dram_write_lines stats 3;
          Some (sep, Leaf r)
        end
        else begin
          Array.blit l.lkeys pos l.lkeys (pos + 1) (l.ln - pos);
          Array.blit l.lvals pos l.lvals (pos + 1) (l.ln - pos);
          l.lkeys.(pos) <- key;
          l.lvals.(pos) <- Some value;
          l.ln <- l.ln + 1;
          t.count <- t.count + 1;
          Stats.dram_write stats ();
          None
        end
      end
  | Inner i -> (
      let ci = child_index i key in
      match insert_node t stats i.children.(ci) key value with
      | None -> None
      | Some (sep, right) ->
          if i.icount <= fanout then begin
            (* Make room for the new child at ci+1. *)
            Array.blit i.ikeys ci i.ikeys (ci + 1) (i.icount - 1 - ci);
            Array.blit i.children (ci + 1) i.children (ci + 2) (i.icount - ci - 1);
            i.ikeys.(ci) <- sep;
            i.children.(ci + 1) <- right;
            i.icount <- i.icount + 1;
            if i.icount > fanout then begin
              let sep', r = split_inner i in
              Some (sep', Inner r)
            end
            else None
          end
          else assert false)

let insert t stats key value =
  match insert_node t stats t.root key value with
  | None -> ()
  | Some (sep, right) ->
      let root =
        {
          ikeys = Array.make fanout 0L;
          children = Array.make (fanout + 1) t.root;
          icount = 2;
        }
      in
      root.ikeys.(0) <- sep;
      root.children.(0) <- t.root;
      root.children.(1) <- right;
      t.root <- Inner root

let remove t stats key =
  let l = find_leaf stats t.root key in
  let pos = lower_bound l.lkeys l.ln key in
  if pos < l.ln && l.lkeys.(pos) = key then begin
    Array.blit l.lkeys (pos + 1) l.lkeys pos (l.ln - pos - 1);
    Array.blit l.lvals (pos + 1) l.lvals pos (l.ln - pos - 1);
    l.ln <- l.ln - 1;
    l.lvals.(l.ln) <- None;
    t.count <- t.count - 1;
    Stats.dram_write stats ()
  end

let fold_range t stats ~lo ~hi ~init ~f =
  let rec walk (l : 'a leaf) acc =
    touch stats;
    let rec entries pos acc =
      if pos >= l.ln then (acc, false)
      else if Int64.compare l.lkeys.(pos) hi > 0 then (acc, true)
      else
        let acc =
          if Int64.compare l.lkeys.(pos) lo >= 0 then
            f acc l.lkeys.(pos) (Option.get l.lvals.(pos))
          else acc
        in
        entries (pos + 1) acc
    in
    let acc, stop = entries 0 acc in
    if stop then acc else match l.next with None -> acc | Some n -> walk n acc
  in
  walk (find_leaf stats t.root lo) init

exception Found_entry

let min_above t stats bound =
  let result = ref None in
  (try
     fold_range t stats ~lo:bound ~hi:Int64.max_int ~init:() ~f:(fun () k v ->
         result := Some (k, v);
         raise Found_entry)
   with Found_entry -> ());
  !result

(* Rightmost entry of a subtree. *)
let rec max_entry stats node =
  touch stats;
  match node with
  | Leaf l -> if l.ln = 0 then None else Some (l.lkeys.(l.ln - 1), Option.get l.lvals.(l.ln - 1))
  | Inner i ->
      let rec go j = if j < 0 then None else
        match max_entry stats i.children.(j) with
        | Some _ as r -> r
        | None -> go (j - 1)
      in
      go (i.icount - 1)

let max_below t stats bound =
  (* Descend tracking left-sibling subtrees for fallback when the
     chosen path holds nothing <= bound. *)
  let rec go node fallback =
    touch stats;
    match node with
    | Leaf l ->
        let pos = lower_bound l.lkeys l.ln (Int64.add bound 1L) in
        if pos > 0 then Some (l.lkeys.(pos - 1), Option.get l.lvals.(pos - 1))
        else
          let rec try_fallback = function
            | [] -> None
            | n :: rest -> (
                match max_entry stats n with Some _ as r -> r | None -> try_fallback rest)
          in
          try_fallback fallback
    | Inner i ->
        let ci = child_index i bound in
        (* Nearer siblings first. *)
        let fb = List.init ci (fun j -> i.children.(ci - 1 - j)) @ fallback in
        go i.children.(ci) fb
  in
  if Int64.compare bound Int64.min_int < 0 then None else go t.root []

let iter t f =
  let rec leftmost = function Leaf l -> l | Inner i -> leftmost i.children.(0) in
  let rec walk (l : 'a leaf) =
    for pos = 0 to l.ln - 1 do
      f l.lkeys.(pos) (Option.get l.lvals.(pos))
    done;
    match l.next with None -> () | Some n -> walk n
  in
  walk (leftmost t.root)

let dram_bytes t =
  let rec size = function
    | Leaf _ -> (fanout * 16) + 32
    | Inner i ->
        let s = ref ((fanout * 16) + 32) in
        for j = 0 to i.icount - 1 do
          s := !s + size i.children.(j)
        done;
        !s
  in
  size t.root

let check_invariants t =
  let ok = ref true in
  (* Leaves sorted and chained in order; count matches. *)
  let seen = ref 0 in
  let last = ref Int64.min_int in
  let first = ref true in
  iter t (fun k _ ->
      incr seen;
      if (not !first) && Int64.compare k !last <= 0 then ok := false;
      first := false;
      last := k);
  if !seen <> t.count then ok := false;
  (* Separators bound their subtrees. *)
  let rec bounds node lo hi =
    match node with
    | Leaf l ->
        for pos = 0 to l.ln - 1 do
          let k = l.lkeys.(pos) in
          if Int64.compare k lo < 0 || (hi <> Int64.max_int && Int64.compare k hi >= 0) then
            ok := false
        done
    | Inner i ->
        for j = 0 to i.icount - 1 do
          let clo = if j = 0 then lo else i.ikeys.(j - 1) in
          let chi = if j = i.icount - 1 then hi else i.ikeys.(j) in
          bounds i.children.(j) clo chi
        done
  in
  bounds t.root Int64.min_int Int64.max_int;
  !ok
